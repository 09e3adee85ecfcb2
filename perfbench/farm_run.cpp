// Closed-loop Farm runs: every tenant keeps its jobs in flight through
// Farm::submit_async, and each completion callback checks the responses
// against the reference and submits that slot's next job.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace fpgafu;

namespace {

/// Jobs each slot runs to completion during set-up, so FU caches, the
/// sessions' shard queues and the host's allocations are warm.  More than
/// the caches need: a set-up of ~100 ms averages out the millisecond-scale
/// stalls of a shared host that made a ~30 ms one swing by a third.
constexpr std::uint64_t kWarmJobsPerSlot = 32;
/// Per-shard capacity of the Farm's latency ring (farm.cpp).
constexpr std::size_t kLatencyRing = 65536;
/// Failure kinds: the four FarmError kinds, then anything untyped.
constexpr std::size_t kKinds = 5;
const char* const kKindNames[kKinds] = {"shard_fault", "shutdown", "overload",
                                        "unit_unavailable", "untyped"};

/// Log-linear histogram of host latencies in ns (64 sub-buckets per power
/// of two, about 1.6% wide), so the samples take the same memory however
/// many jobs a run completes and peak_rss_mb does not grow with speed.
class Histogram {
 public:
  void add(double ns) {
    const auto v = static_cast<std::uint64_t>(std::max(ns, 0.0));
    ++counts_[std::min(index(v), kBuckets - 1)];
    ++total_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    total_ += o.total_;
  }
  std::uint64_t count() const { return total_; }
  /// Nearest-rank percentile, interpolated linearly inside its bucket.
  double percentile(double q) const {
    if (total_ == 0) {
      return 0;
    }
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
    double below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (below + c >= rank) {
        const double lo = lower(i);
        return lo + (lower(i + 1) - lo) * (rank - below) / c;
      }
      below += c;
    }
    return lower(kBuckets);
  }

 private:
  static constexpr std::size_t kSub = 64;
  static constexpr std::size_t kBuckets = 44 * kSub;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const auto e = static_cast<std::size_t>(63 - __builtin_clzll(v));
    return (e - 5) * kSub + static_cast<std::size_t>((v >> (e - 6)) & (kSub - 1));
  }
  static double lower(std::size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    const std::size_t e = i / kSub + 5;
    return std::ldexp(static_cast<double>(kSub + i % kSub),
                      static_cast<int>(e) - 6);
  }
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// One in-flight position of a tenant.  A slot's jobs run strictly one
/// after another (the callback of job n submits job n+1), so its fields
/// are only ever touched by one thread at a time.
struct Slot {
  std::size_t tenant = 0;
  std::size_t next = 0;  ///< ring index of the slot's next job
  std::uint64_t submitted = 0;
  std::uint64_t limit = 0;
  std::uint64_t completed = 0;
  std::array<std::uint64_t, kKinds> failed{};
  Histogram latency_ns;
  std::vector<double> submit_ns;
  Clock::time_point last_done;
};

class ClosedLoop {
 public:
  ClosedLoop(host::Farm& farm, const FarmWorkload& w,
             std::vector<host::Farm::SessionId> sessions)
      : farm_(farm), w_(w), sessions_(std::move(sessions)) {
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      for (std::size_t k = 0; k < w.tenants[t].in_flight; ++k) {
        Slot s;
        s.tenant = t;
        s.next = k;
        slots_.push_back(std::move(s));
      }
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Run every slot until it has submitted `jobs_per_slot` more jobs or
  /// `deadline` passes, and wait until all of them resolved.  Returns the
  /// wall time from the first submit to the last resolution, ns.
  double run(std::uint64_t jobs_per_slot, Clock::time_point deadline,
             bool time_submits) {
    deadline_ = deadline;
    time_submits_ = time_submits;
    for (Slot& s : slots_) {
      // Saturating: jobs_per_slot may be "unlimited" (all ones).
      s.limit = s.submitted + std::min(jobs_per_slot, ~s.submitted);
      s.completed = 0;
      s.failed = {};
      s.latency_ns = Histogram();
      s.submit_ns.clear();
    }
    const Clock::time_point start = Clock::now();
    outstanding_.store(static_cast<std::int64_t>(slots_.size()));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      submit(i);
    }
    std::unique_lock<std::mutex> lk(done_m_);
    const bool drained = done_cv_.wait_for(
        lk, std::chrono::seconds(120), [&] { return outstanding_ == 0; });
    check(drained, "perfbench: closed loop did not drain within 120 s");
    Clock::time_point end = start;
    for (const Slot& s : slots_) {
      end = std::max(end, s.last_done);
    }
    return ns_between(start, end);
  }

  const std::vector<Slot>& slots() const { return slots_; }
  bool mismatched() const { return mismatch_.load(); }
  std::string mismatch() const {
    std::lock_guard<std::mutex> lk(mismatch_m_);
    return mismatch_text_;
  }

 private:
  /// Submit slot `i`'s next job; the slot's outstanding count is already
  /// held by the caller.  Releases it when the slot stops.  Submit time is
  /// sampled only on resubmits from a completion callback: that runs on
  /// the shard's worker, which cannot run the new job's callback
  /// concurrently, while an initial submit's callback can race the
  /// main thread's write of the sample.
  void submit(std::size_t i, bool from_callback = false) {
    Slot& s = slots_[i];
    if (s.submitted >= s.limit || mismatch_.load() ||
        Clock::now() >= deadline_) {
      release();
      return;
    }
    const Tenant& tenant = w_.tenants[s.tenant];
    const Job& job = tenant.jobs[s.next % tenant.jobs.size()];
    s.next += tenant.in_flight;
    ++s.submitted;
    const Clock::time_point t0 = Clock::now();
    try {
      farm_.submit_async(
          sessions_[s.tenant], job.program,
          [this, i, &job, t0](std::vector<msg::Response> responses,
                              std::exception_ptr err) {
            done(i, job, t0, responses, err);
          });
    } catch (...) {
      s.failed[kind_of(std::current_exception())] += 1;
      s.last_done = Clock::now();
      release();
      return;
    }
    if (time_submits_ && from_callback) {
      s.submit_ns.push_back(ns_between(t0, Clock::now()));
    }
  }

  void done(std::size_t i, const Job& job, Clock::time_point t0,
            const std::vector<msg::Response>& responses,
            std::exception_ptr err) {
    Slot& s = slots_[i];
    s.last_done = Clock::now();
    if (err) {
      s.failed[kind_of(err)] += 1;
    } else if (responses != job.expected) {
      std::lock_guard<std::mutex> lk(mismatch_m_);
      if (!mismatch_.exchange(true)) {
        mismatch_text_ = "tenant " + std::to_string(s.tenant) + " job " +
                         std::to_string(s.submitted) + ": " +
                         std::to_string(responses.size()) +
                         " responses differ from the reference's " +
                         std::to_string(job.expected.size());
      }
    } else {
      ++s.completed;
      s.latency_ns.add(ns_between(t0, s.last_done));
    }
    submit(i, true);
  }

  void release() {
    if (outstanding_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(done_m_);
      done_cv_.notify_all();
    }
  }

  static std::size_t kind_of(std::exception_ptr err) {
    try {
      std::rethrow_exception(err);
    } catch (const host::FarmError& e) {
      return static_cast<std::size_t>(e.kind());
    } catch (...) {
      return kKinds - 1;
    }
  }

  host::Farm& farm_;
  const FarmWorkload& w_;
  std::vector<host::Farm::SessionId> sessions_;
  std::vector<Slot> slots_;
  Clock::time_point deadline_;
  bool time_submits_ = false;
  std::atomic<std::int64_t> outstanding_{0};
  std::mutex done_m_;
  std::condition_variable done_cv_;
  std::atomic<bool> mismatch_{false};
  mutable std::mutex mismatch_m_;
  std::string mismatch_text_;
};

/// A set-up Farm: the generated workload (with its reference responses),
/// the Farm, one session per tenant and the closed loop over them.
/// `loop` is declared before `farm` so the Farm (whose workers run the
/// loop's callbacks) is joined before the loop is destroyed.
struct Live {
  FarmWorkload w;
  std::unique_ptr<ClosedLoop> loop;
  host::Farm farm;
  std::vector<std::size_t> shard_of;

  explicit Live(FarmWorkload workload)
      : w(std::move(workload)), farm(w.config) {
    std::vector<host::Farm::SessionId> sessions;
    for (const Tenant& t : w.tenants) {
      const host::Farm::SessionId id = t.required.empty()
                                           ? farm.create_session()
                                           : farm.create_session(t.required);
      shard_of.push_back(farm.shard_of(id));
      check(!t.required.empty() || shard_of.back() == t.shard,
            "perfbench: session landed on another shard than its "
            "registers were allocated on");
      sessions.push_back(id);
    }
    loop = std::make_unique<ClosedLoop>(farm, w, std::move(sessions));
  }
};

std::uint64_t resolved_jobs(const sim::Counters& c) {
  return c.get("farm.jobs_completed") + c.get("farm.jobs_failed");
}

/// Wait until the Farm's published counters account for every job the
/// loop has seen resolve (a shard publishes exactly when it goes idle).
sim::Counters settled_counters(const host::Farm& farm, std::uint64_t resolved) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    sim::Counters c = farm.counters();
    if (resolved_jobs(c) >= resolved || Clock::now() > give_up) {
      return c;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  r = std::clamp<std::size_t>(r, 1, v.size());
  return v[r - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

Report run_farm(const std::string& workload, std::uint64_t seed,
                double seconds, std::size_t setups, bool layer_metrics,
                std::vector<std::size_t>* shard_of) {
  const Clock::time_point far = Clock::now() + std::chrono::hours(1);
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  std::uint64_t resolved = 0;
  for (std::size_t i = 0; i < setups; ++i) {
    live.reset();
    resolved = 0;
    const Clock::time_point t0 = Clock::now();
    live = std::make_unique<Live>(make_workload(workload, seed));
    live->loop->run(kWarmJobsPerSlot, far, false);
    for (const Slot& s : live->loop->slots()) {
      resolved += s.submitted;
    }
    settled_counters(live->farm, resolved);
    setup_s.push_back(ns_between(t0, Clock::now()) * 1e-9);
  }
  Report report;
  report.config = live->w.config_json;
  ClosedLoop& loop = *live->loop;
  if (loop.mismatched()) {
    report.correct = false;
    report.failure = loop.mismatch();
    return report;
  }
  const std::size_t shards = live->farm.shard_count();
  // Latency samples each shard recorded before the measurement starts.
  std::vector<std::uint64_t> warm(shards, 0);
  for (const Slot& s : loop.slots()) {
    warm[live->shard_of[s.tenant]] += s.completed;
  }
  const sim::Counters c0 = settled_counters(live->farm, resolved);

  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const double elapsed_ns =
      loop.run(~std::uint64_t{0}, Clock::now() + budget, layer_metrics);
  live->farm.shutdown();
  const sim::Counters c1 = live->farm.counters();
  const auto delta = [&](const char* name) {
    return static_cast<double>(c1.get(name) - c0.get(name));
  };

  Histogram latency_ns;
  std::vector<double> submit_ns;
  std::vector<std::uint64_t> measured(shards, 0);
  std::array<std::uint64_t, kKinds> failed{};
  for (const Slot& s : loop.slots()) {
    report.attempted += s.submitted;
    latency_ns.merge(s.latency_ns);
    submit_ns.insert(submit_ns.end(), s.submit_ns.begin(), s.submit_ns.end());
    measured[live->shard_of[s.tenant]] += s.completed;
    for (std::size_t k = 0; k < kKinds; ++k) {
      failed[k] += s.failed[k];
      report.failed += s.failed[k];
    }
  }
  // attempted counts the set-up's submits too; take them back out.
  report.attempted -= resolved;
  if (loop.mismatched()) {
    report.correct = false;
    report.failure = loop.mismatch();
    return report;
  }
  const double jobs = static_cast<double>(latency_ns.count());
  const double settled = jobs + static_cast<double>(report.failed);
  if (report.failed > 0) {
    std::string line = "failures by FarmError kind:";
    for (std::size_t k = 0; k < kKinds; ++k) {
      line += ' ';
      line += kKindNames[k];
      line += '=';
      line += std::to_string(failed[k]);
    }
    report.notes.push_back(line);
  }
  report.set("failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             report.attempted);

  if (shard_of != nullptr) {
    *shard_of = live->shard_of;
  }
  if (layer_metrics) {
    report.set("farm.submit_ns_p50", percentile(submit_ns, 0.50),
               submit_ns.size());
    report.set("farm.submit_ns_p99", percentile(submit_ns, 0.99),
               submit_ns.size());
    report.set("farm.stats_publishes_per_kjob",
               1e3 * delta("farm.stats_publishes") / settled);
    report.set("farm.jobs_failed", delta("farm.jobs_failed"));
    report.set("farm.jobs_shed", delta("farm.jobs_shed"));
    report.set("farm.shard_resets", delta("farm.shard_resets"));
    const double hits = delta("algod.hits");
    const double probes = hits + delta("algod.misses");
    report.set("algod.hit_ratio", probes > 0 ? hits / probes : 0.0);
    report.set("algod.loads_per_kjob", 1e3 * delta("algod.loads") / settled);
    report.set("algod.evictions_per_kjob",
               1e3 * delta("algod.evictions") / settled);
    report.set("algod.load_cycles_per_job",
               delta("algod.load_cycles") / settled);
    report.set("algod.drain_cycles_per_job",
               delta("algod.drain_cycles") / settled);
    return report;
  }

  // Simulated-cycle latencies of the measured jobs only, gathered in place
  // at the front of `raw`.  Each shard's ring segment is in insertion
  // order until it wraps; after that the oldest sample sits at
  // (total - capacity) % capacity.  A job that ran but failed records a
  // sample without a completion; then the sizes disagree and every sample
  // is kept.
  std::vector<std::uint64_t> raw = live->farm.job_latency_samples();
  std::size_t kept = raw.size();
  bool wrapped = false;
  std::size_t segments = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    segments += std::min<std::uint64_t>(warm[s] + measured[s], kLatencyRing);
  }
  if (segments != raw.size()) {
    report.notes.push_back(
        "sim latency samples could not be split from the set-up's; the "
        "percentiles include them");
  } else {
    std::size_t offset = 0;
    kept = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t total = warm[s] + measured[s];
      const std::size_t seg = std::min<std::uint64_t>(total, kLatencyRing);
      const std::size_t oldest =
          total > kLatencyRing ? (total - kLatencyRing) % kLatencyRing : 0;
      wrapped = wrapped || total > kLatencyRing;
      const std::size_t keep = std::min<std::uint64_t>(measured[s], seg);
      std::vector<std::uint64_t> tail;
      for (std::size_t k = seg - keep; k < seg; ++k) {
        tail.push_back(raw[offset + (oldest + k) % seg]);
      }
      std::copy(tail.begin(), tail.end(),
                raw.begin() + static_cast<std::ptrdiff_t>(kept));
      kept += keep;
      offset += seg;
    }
  }
  if (wrapped) {
    report.notes.push_back(
        "the Farm's 65536-sample latency ring wrapped: sim latency "
        "percentiles cover the last 65536 jobs of each shard");
  }
  raw.resize(kept);
  std::sort(raw.begin(), raw.end());
  const auto sim_percentile = [&](double q) {
    if (raw.empty()) {
      return 0.0;
    }
    auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(kept)));
    return static_cast<double>(raw[std::clamp<std::size_t>(r, 1, kept) - 1]);
  };

  const double cycles = delta("farm.shard_cycles");
  report.set("setup_s", median(setup_s), setup_s.size());
  const std::size_t n_lat = latency_ns.count();
  report.set("jobs_per_s", jobs * 1e9 / elapsed_ns, n_lat);
  report.set("latency_p50_us", latency_ns.percentile(0.50) * 1e-3, n_lat);
  report.set("latency_p99_us", latency_ns.percentile(0.99) * 1e-3, n_lat);
  report.set("sim_latency_p50_cycles", sim_percentile(0.50), kept);
  report.set("sim_latency_p99_cycles", sim_percentile(0.99), kept);
  report.set("sim_cycles_per_job", cycles / settled);
  report.set("sim_cycles_per_s", cycles * 1e9 / elapsed_ns);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace perfbench

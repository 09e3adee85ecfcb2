// The traced layer replay: one shard's job stream of a Farm workload,
// driven inline through the public layer APIs so each call can be timed
// from here.  Untraced and traced passes alternate; the difference of
// their wall times is the tracing overhead, and the traced passes' layer
// spans must cover the pass's wall time up to a stated tolerance.

#include <algorithm>
#include <array>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "host/algod.hpp"
#include "host/coprocessor.hpp"
#include "host/framing.hpp"
#include "host/reliable_transport.hpp"
#include "top/system.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace fpgafu;

namespace {

/// Share of a traced pass's wall time its layer spans may leave uncovered
/// (the replay's own bookkeeping and response checks run outside spans).
constexpr double kUnattributedTolerance = 0.15;
/// Spans written to the Chrome trace file (the first traced pass only).
constexpr std::size_t kMaxTraceSpans = 60000;

/// The layers a span can belong to; one trace track each.
enum Layer : std::uint8_t {
  kFraming,
  kSubmit,
  kService,
  kPoll,
  kEnsure,
  kStep,
  kPass,
  kLayers
};
const char* const kLayerNames[kLayers] = {
    "host.framing (split_frame / split_groups + predict)",
    "transport.submit (ReliableTransport::submit*)",
    "transport.service (Driver + ReliableTransport::service)",
    "transport.poll (ReliableTransport::poll_completed)",
    "algod.ensure (FuManager::ensure_resident_all)",
    "sim.step (Simulator::step)",
    "replay (whole pass)"};

struct Span {
  Layer layer = kPass;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// What one pass measured.  The counts are deterministic for a given
/// workload and seed; the times are not.
struct Pass {
  double wall_ns = 0;
  std::array<double, kLayers> layer_ns{};
  std::uint64_t jobs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::uint64_t evals = 0;
  std::uint64_t service_calls = 0;
  std::uint64_t wake_sum = 0;
  std::uint64_t commit_sum = 0;
  unsigned max_settle = 0;
  std::array<std::uint64_t, 5> rtm{};
  std::string mismatch;

  auto counts() const {
    return std::make_tuple(jobs, cycles, steps, evals, service_calls, wake_sum,
                           commit_sum, max_settle, rtm);
  }
};

const char* const kRtmCounters[5] = {"dispatch.exec", "stall.lock",
                                     "stall.unit_busy", "stall.sync",
                                     "arbiter.contention"};

/// One replay pass on a fresh single-shard engine: the given tenants'
/// closed loops, issued FIFO into the transport window the way a Farm
/// worker does (coalesced frames with the flush timer when the workload
/// coalesces; FU swaps only on an empty window).
class Replay {
 public:
  Replay(const FarmWorkload& w, const std::vector<std::size_t>& tenants,
         bool traced, std::vector<Span>* log, Clock::time_point epoch)
      : w_(w),
        traced_(traced),
        log_(log),
        epoch_(epoch),
        system_(w.config.system),
        copro_(system_),
        transport_(copro_, w.config.transport) {
    if (!w.config.fu_images.empty()) {
      host::FuManagerConfig mcfg;
      mcfg.slots = w.config.fu_slots;
      manager_ = std::make_unique<host::FuManager>(copro_, mcfg);
      for (const host::AlgorithmImage& image : w.config.fu_images) {
        manager_->register_image(image);
      }
    }
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const std::size_t t : tenants) {
        if (k < w.tenants[t].in_flight) {
          slots_.push_back({t, k});
          ready_.push_back(slots_.size() - 1);
          any = true;
        }
      }
      if (!any) {
        break;
      }
    }
  }

  Pass run() {
    sim::Simulator& sim = system_.simulator();
    const std::uint64_t cycle0 = sim.cycle();
    const std::uint64_t evals0 = sim.evals_performed();
    const std::size_t target = w_.replay_jobs;
    const Clock::time_point t0 = Clock::now();
    std::vector<host::ReliableTransport::Completion> comps;
    while (pass_.jobs < target && pass_.mismatch.empty()) {
      issue(target);
      timed(kService, [&] {
        copro_.driver().service();
        transport_.service();
      });
      ++pass_.service_calls;
      timed(kPoll, [&] {
        while (auto c = transport_.poll_completed()) {
          comps.push_back(std::move(*c));
        }
      });
      for (host::ReliableTransport::Completion& c : comps) {
        complete(c);
      }
      comps.clear();
      if (pass_.jobs >= target) {
        break;
      }
      timed(kStep, [&] { sim.step(); });
      ++pass_.steps;
      if (traced_) {
        pass_.wake_sum += sim.wake_set_size();
        pass_.commit_sum += sim.commit_set_size();
      }
    }
    const Clock::time_point t1 = Clock::now();
    pass_.wall_ns = ns_between(t0, t1);
    if (log_ != nullptr) {
      log_->push_back({kPass, static_cast<std::int64_t>(ns_between(epoch_, t0)),
                       static_cast<std::int64_t>(pass_.wall_ns)});
    }
    pass_.cycles = sim.cycle() - cycle0;
    pass_.evals = sim.evals_performed() - evals0;
    pass_.max_settle = sim.max_settle_iterations();
    for (std::size_t i = 0; i < pass_.rtm.size(); ++i) {
      pass_.rtm[i] = system_.rtm().counters().get(kRtmCounters[i]);
    }
    return pass_;
  }

 private:
  struct SlotState {
    std::size_t tenant = 0;
    std::size_t next = 0;  ///< ring index of the slot's next job
  };

  template <typename F>
  auto timed(Layer layer, F&& f) -> decltype(f()) {
    if (!traced_) {
      return f();
    }
    const Clock::time_point a = Clock::now();
    struct Record {
      Pass& pass;
      std::vector<Span>* log;
      Clock::time_point epoch;
      Clock::time_point a;
      Layer layer;
      ~Record() {
        const Clock::time_point b = Clock::now();
        const double dur = ns_between(a, b);
        pass.layer_ns[layer] += dur;
        if (log != nullptr && log->size() < kMaxTraceSpans) {
          log->push_back({layer, static_cast<std::int64_t>(ns_between(epoch, a)),
                          static_cast<std::int64_t>(dur)});
        }
      }
    } record{pass_, log_, epoch_, a, layer};
    return f();
  }

  const Job& job_of(std::size_t slot) const {
    const Tenant& t = w_.tenants[slots_[slot].tenant];
    return t.jobs[slots_[slot].next % t.jobs.size()];
  }

  /// Issue ready jobs while the window has room, as a Farm worker would.
  void issue(std::size_t target) {
    const host::FarmConfig& cfg = w_.config;
    const rtm::Rtm& rtm = system_.rtm();
    const std::size_t max_members =
        std::max<std::size_t>(1, cfg.coalesce_max_programs);
    while (!ready_.empty() && issued_ < target &&
           !transport_.window_full()) {
      const std::size_t front = ready_.front();
      const Tenant& tenant = w_.tenants[slots_[front].tenant];
      if (manager_ && !tenant.required.empty()) {
        bool swap = false;
        for (const std::string& name : tenant.required) {
          swap = swap || !manager_->resident(name);
        }
        if (swap && transport_.in_flight() > 0) {
          return;  // swaps wait for an empty window
        }
        timed(kEnsure,
              [&] { manager_->ensure_resident_all(tenant.required); });
      }
      if (max_members == 1) {
        const Job& job = job_of(front);
        const auto id = timed(kSubmit, [&] {
          return transport_.submit(job.program, cfg.job_budget_cycles);
        });
        timed(kFraming, [&] {
          for (const host::InstructionGroup& g :
               host::split_groups(job.program)) {
            sink_ += host::predict(g.inst, rtm.config(), rtm.table()).count;
          }
        });
        launch(id, front);
        continue;
      }
      // Coalesced frame: a FIFO prefix of the ready jobs, cut at the
      // member cap, the word cap or the pass length; a partial frame is
      // held open up to the flush time.
      std::size_t count = 1;
      std::size_t words = job_of(front).program.words().size();
      while (count < ready_.size() && count < max_members &&
             issued_ + count < target) {
        const std::size_t w = job_of(ready_[count]).program.words().size();
        if (cfg.coalesce_max_words > 0 && words + w > cfg.coalesce_max_words) {
          break;
        }
        words += w;
        ++count;
      }
      const bool partial = count == ready_.size() && count < max_members &&
                           issued_ + count < target;
      if (partial && cfg.coalesce_flush_cycles > 0) {
        const std::uint64_t now = system_.simulator().cycle();
        if (!flush_at_) {
          flush_at_ = now + cfg.coalesce_flush_cycles;
        }
        if (now < *flush_at_) {
          return;
        }
      }
      std::vector<const isa::Program*> programs;
      std::vector<host::ReliableTransport::CoalescedItem> items;
      for (std::size_t i = 0; i < count; ++i) {
        const isa::Program* p = &job_of(ready_[i]).program;
        programs.push_back(p);
        items.push_back({p, cfg.job_budget_cycles, false});
      }
      const auto ids =
          timed(kSubmit, [&] { return transport_.submit_coalesced(items); });
      timed(kFraming, [&] {
        sink_ += host::split_frame(programs, rtm.config(), rtm.table())
                     .groups.size();
      });
      for (const auto id : ids) {
        launch(id, ready_.front());
      }
      flush_at_.reset();
    }
    if (ready_.empty()) {
      flush_at_.reset();
    }
  }

  void launch(host::ReliableTransport::ProgramId id, std::size_t slot) {
    in_flight_.emplace_back(id, slot);
    ready_.pop_front();
    ++issued_;
  }

  void complete(host::ReliableTransport::Completion& c) {
    auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                           [&](const auto& e) { return e.first == c.id; });
    check(it != in_flight_.end(), "perfbench: replay lost a program id");
    const std::size_t slot = it->second;
    in_flight_.erase(it);
    if (c.responses != job_of(slot).expected && pass_.mismatch.empty()) {
      pass_.mismatch = "replay: tenant " +
                       std::to_string(slots_[slot].tenant) + " job " +
                       std::to_string(pass_.jobs) +
                       ": responses differ from the reference";
    }
    ++pass_.jobs;
    slots_[slot].next += w_.tenants[slots_[slot].tenant].in_flight;
    ready_.push_back(slot);
  }

  const FarmWorkload& w_;
  bool traced_;
  std::vector<Span>* log_;
  Clock::time_point epoch_;
  top::System system_;
  host::Coprocessor copro_;
  host::ReliableTransport transport_;
  std::unique_ptr<host::FuManager> manager_;
  std::vector<SlotState> slots_;
  std::deque<std::size_t> ready_;
  std::deque<std::pair<host::ReliableTransport::ProgramId, std::size_t>>
      in_flight_;
  std::size_t issued_ = 0;
  std::optional<std::uint64_t> flush_at_;
  std::size_t sink_ = 0;
  Pass pass_;
};

/// Chrome trace-event JSON: one complete ("X") event per span, one track
/// (tid) per layer, named through thread_name metadata events.
void write_chrome_trace(const std::string& path, const std::vector<Span>& log,
                        const std::string& workload) {
  std::ofstream out(path);
  check(static_cast<bool>(out), "perfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": \""
      << workload << "\"}, \"traceEvents\": [\n";
  for (std::size_t l = 0; l < kLayers; ++l) {
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
        << l << ", \"args\": {\"name\": \"" << kLayerNames[l] << "\"}},\n";
  }
  out.setf(std::ios::fixed);
  out.precision(3);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Span& s = log[i];
    const std::string name = kLayerNames[s.layer];
    out << "{\"ph\": \"X\", \"name\": \"" << name.substr(0, name.find(' '))
        << "\", \"pid\": 1, \"tid\": " << static_cast<int>(s.layer)
        << ", \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.dur_ns) * 1e-3 << "}"
        << (i + 1 < log.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace

void run_replay(const FarmWorkload& w, const std::vector<std::size_t>& shard_of,
                double seconds, const std::string& trace_path,
                Report& report) {
  std::vector<std::size_t> tenants;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    if (shard_of[t] == 0) {
      tenants.push_back(t);
    }
  }
  const Clock::time_point epoch = Clock::now();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::vector<Span> log;
  log.reserve(kMaxTraceSpans + 1);
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  do {
    untraced.push_back(Replay(w, tenants, false, nullptr, epoch).run());
    traced.push_back(
        Replay(w, tenants, true, traced.empty() ? &log : nullptr, epoch).run());
  } while (Clock::now() - epoch < budget);

  for (const std::vector<Pass>* passes : {&untraced, &traced}) {
    for (const Pass& p : *passes) {
      if (!p.mismatch.empty()) {
        report.correct = false;
        report.failure = p.mismatch;
        return;
      }
    }
  }
  // Every pass replays the same stream, so the deterministic counts must
  // agree between them (the untraced passes skip the wake/commit reads).
  const Pass& first = traced.front();
  for (const Pass& p : traced) {
    check(p.counts() == first.counts(),
          "perfbench: replay passes of one stream disagree on a "
          "deterministic count");
  }

  Pass sum;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  for (const Pass& p : traced) {
    sum.wall_ns += p.wall_ns;
    for (std::size_t l = 0; l < kLayers; ++l) {
      sum.layer_ns[l] += p.layer_ns[l];
    }
    sum.jobs += p.jobs;
    sum.steps += p.steps;
    traced_wall.push_back(p.wall_ns);
  }
  for (const Pass& p : untraced) {
    untraced_wall.push_back(p.wall_ns);
  }
  const double jobs = static_cast<double>(sum.jobs);
  const auto per_job = [&](Layer l) { return sum.layer_ns[l] / jobs; };
  report.set("framing.ns_per_job", per_job(kFraming), sum.jobs);
  // submit / submit_coalesced split and predict internally; the framing
  // span repeats that work on the same members right after, warm, so the
  // difference is an upper estimate of the transport's own submit time.
  report.set("transport.submit_ns_per_job",
             per_job(kSubmit) - per_job(kFraming), sum.jobs);
  report.set("transport.service_ns_per_job", per_job(kService), sum.jobs);
  report.set("transport.poll_ns_per_job", per_job(kPoll), sum.jobs);
  report.set("transport.service_calls_per_job",
             static_cast<double>(first.service_calls) /
                 static_cast<double>(first.jobs));
  report.set("algod.ensure_ns_per_job", per_job(kEnsure), sum.jobs);
  report.set("sim.step_ns_per_cycle",
             sum.layer_ns[kStep] / static_cast<double>(sum.steps), sum.steps);
  const auto per_step = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(first.steps);
  };
  report.set("sim.evals_per_cycle", static_cast<double>(first.evals) /
                                        static_cast<double>(first.cycles));
  report.set("sim.wake_set_mean", per_step(first.wake_sum));
  report.set("sim.commit_set_mean", per_step(first.commit_sum));
  report.set("sim.max_settle_iterations", first.max_settle);
  const auto per_first_job = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(first.jobs);
  };
  report.set("replay.sim_cycles_per_job", per_first_job(first.cycles));
  report.set("rtm.dispatch_exec_per_job", per_first_job(first.rtm[0]));
  report.set("rtm.stall_lock_per_job", per_first_job(first.rtm[1]));
  report.set("rtm.stall_unit_busy_per_job", per_first_job(first.rtm[2]));
  report.set("rtm.stall_sync_per_job", per_first_job(first.rtm[3]));
  report.set("rtm.arbiter_contention_per_job", per_first_job(first.rtm[4]));

  double covered = 0;
  for (std::size_t l = 0; l < kPass; ++l) {
    covered += sum.layer_ns[l];
  }
  const double unattributed = 1.0 - covered / sum.wall_ns;
  report.set("replay.unattributed_frac", unattributed, traced.size());
  report.set("trace.overhead_frac",
             median(traced_wall) / median(untraced_wall) - 1.0,
             traced.size() + untraced.size());
  report.notes.push_back(
      "replay: " + std::to_string(tenants.size()) + " tenants of shard 0, " +
      std::to_string(traced.size()) + " traced + " +
      std::to_string(untraced.size()) + " untraced passes of " +
      std::to_string(first.jobs) + " jobs");
  if (unattributed > kUnattributedTolerance) {
    report.correct = false;
    report.failure = "replay.unattributed_frac " +
                      std::to_string(unattributed) + " exceeds the tolerance " +
                      std::to_string(kUnattributedTolerance);
  }
  if (!trace_path.empty()) {
    write_chrome_trace(trace_path, log, w.name);
    report.notes.push_back("chrome trace (" + std::to_string(log.size()) +
                           " spans) written to " + trace_path);
  }
}

}  // namespace perfbench

// The hpcc workload: one thread, no Farm.  A pass runs STREAM, RandomAccess,
// blocked GEMM and b_eff on the 1%-faulty link through host::hpcc with the
// construction-default settle kernel; every result is checked against the
// module's oracle (or host::ReferenceModel, for b_eff).

#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "host/hpcc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fpgafu;
namespace hpcc = host::hpcc;

namespace {

/// Passes whose deterministic counts the per-layer run reports (it always
/// runs at least this many).  b_eff's cycle count swings several-fold with
/// the fault pattern, so a count over one pass would say more about that
/// pattern than about the code.
constexpr std::size_t kCountedPasses = 8;

struct Configs {
  hpcc::StreamConfig stream;
  hpcc::RandomAccessConfig ra;
  hpcc::GemmConfig gemm;
  hpcc::BeffConfig beff;
};

/// Inputs of pass `pass` of a run with `seed`: every pass draws its own
/// data and b_eff fault pattern, so a run averages over many patterns.
Configs configs(std::uint64_t run_seed, std::uint64_t pass) {
  const std::uint64_t seed =
      Xoshiro256(run_seed ^ (pass * 0x9e3779b97f4a7c15ULL)).next();
  Configs c;
  c.stream.elements = 128;
  c.stream.seed = seed ^ 0x57ea1155;
  c.ra.table_words = 256;
  c.ra.updates = 256;
  c.ra.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  c.gemm.n = 8;
  c.gemm.block = 4;
  c.gemm.seed = seed ^ 0x6e440110;
  c.beff.message_words = {1, 4, 16, 64};
  c.beff.repeats = 2;
  c.beff.faulty = true;
  c.beff.fault_ppm = 10000;
  c.beff.seed = seed ^ 0xbeef0042;
  return c;
}

enum Part { kStream, kRa, kGemm, kBeff, kParts };

/// One pass: each part's results plus the wall time around its host call.
struct PassResult {
  std::array<std::vector<hpcc::WorkloadResult>, kParts> results;
  std::array<double, kParts> call_ns{};
  std::uint64_t retries = 0;
  std::uint64_t cycles = 0;
  std::string mismatch;

  std::uint64_t part_cycles(Part p) const {
    std::uint64_t c = 0;
    for (const hpcc::WorkloadResult& r : results[p]) {
      c += r.cycles;
    }
    return c;
  }
};

PassResult run_pass(const Configs& c, hpcc::Kernel kernel) {
  PassResult out;
  const auto call = [&](Part p, auto&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    out.call_ns[p] = ns_between(t0, Clock::now());
  };
  call(kStream, [&] { out.results[kStream] = hpcc::run_stream(kernel, c.stream); });
  call(kRa, [&] {
    out.results[kRa] = {hpcc::run_random_access(kernel, c.ra).result};
  });
  call(kGemm, [&] { out.results[kGemm] = {hpcc::run_gemm(kernel, c.gemm)}; });
  call(kBeff, [&] {
    const hpcc::BeffOutcome b = hpcc::run_beff(kernel, c.beff);
    out.results[kBeff] = {b.result};
    out.retries = b.transport_retries;
  });
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const hpcc::WorkloadResult& r : out.results[p]) {
      out.cycles += r.cycles;
      if (!r.ok() && out.mismatch.empty()) {
        out.mismatch = r.name + ": " + std::to_string(r.mismatches) +
                       " of " + std::to_string(r.verified) +
                       " values differ from the oracle";
      }
    }
  }
  return out;
}

/// The pass inputs' shape as a JSON object, for the provenance stamp.
std::string config_json(std::uint64_t seed) {
  const Configs c = configs(seed, 0);
  return "{\"stream_elements\": " + std::to_string(c.stream.elements) +
         ", \"stream_block\": " + std::to_string(c.stream.block) +
         ", \"ra_table_words\": " + std::to_string(c.ra.table_words) +
         ", \"ra_updates\": " + std::to_string(c.ra.updates) +
         ", \"gemm_n\": " + std::to_string(c.gemm.n) +
         ", \"gemm_block\": " + std::to_string(c.gemm.block) +
         ", \"beff_message_words\": [1, 4, 16, 64], \"beff_repeats\": " +
         std::to_string(c.beff.repeats) +
         ", \"beff_fault_ppm\": " + std::to_string(c.beff.fault_ppm) +
         ", \"inputs\": \"drawn per pass from the seed\", "
         "\"counted_passes\": " + std::to_string(kCountedPasses) + "}";
}

}  // namespace

Report run_hpcc(std::uint64_t seed, double seconds, std::size_t setups,
                bool layer_metrics) {
  const hpcc::Kernel kernel = sim::Simulator().kernel();
  Report report;
  report.config = config_json(seed);
  // Set-up: one unmeasured pass on inputs no measured pass uses, with
  // b_eff on the clean link so its length does not hang on one fault
  // pattern (the oracles, allocator and caches warm up; hpcc builds its
  // Systems per call, so there is nothing else to construct).
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    Configs warm_inputs = configs(seed, ~std::uint64_t{0});
    warm_inputs.beff.faulty = false;
    const PassResult warm = run_pass(warm_inputs, kernel);
    setup_s.push_back(ns_between(t0, Clock::now()) * 1e-9);
    if (!warm.mismatch.empty()) {
      report.correct = false;
      report.failure = warm.mismatch;
      return report;
    }
  }

  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const std::size_t min_passes = layer_metrics ? kCountedPasses : 1;
  std::vector<PassResult> passes;
  std::vector<double> pass_ns;
  std::vector<double> pass_cycles;
  double cycles = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    passes.push_back(run_pass(configs(seed, passes.size()), kernel));
    pass_ns.push_back(ns_between(t0, Clock::now()));
    pass_cycles.push_back(static_cast<double>(passes.back().cycles));
    cycles += pass_cycles.back();
    ++report.attempted;
    if (!passes.back().mismatch.empty()) {
      report.correct = false;
      report.failure = passes.back().mismatch;
      return report;
    }
  } while (passes.size() < min_passes || Clock::now() - start < budget);
  const double elapsed_ns = ns_between(start, Clock::now());
  const double n = static_cast<double>(passes.size());

  if (!layer_metrics) {
    report.set("setup_s", median(setup_s), setup_s.size());
    report.set("jobs_per_s", n * 1e9 / elapsed_ns, passes.size());
    report.set("latency_p50_us", percentile(pass_ns, 0.50) * 1e-3,
               passes.size());
    report.set("latency_p99_us", percentile(pass_ns, 0.99) * 1e-3,
               passes.size());
    report.set("sim_latency_p50_cycles", percentile(pass_cycles, 0.50),
               passes.size());
    report.set("sim_latency_p99_cycles", percentile(pass_cycles, 0.99),
               passes.size());
    report.set("sim_cycles_per_job", cycles / n);
    report.set("sim_cycles_per_s", cycles * 1e9 / elapsed_ns);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("failed_frac", 0.0, passes.size());
    return report;
  }

  const char* const names[kParts] = {"stream", "ra", "gemm", "beff"};
  for (std::size_t p = 0; p < kParts; ++p) {
    double ns = 0;
    double part_cycles = 0;
    for (const PassResult& r : passes) {
      ns += r.call_ns[p];
      part_cycles += static_cast<double>(r.part_cycles(Part(p)));
    }
    report.set(std::string("hpcc.") + names[p] + "_ns_per_cycle",
               ns / part_cycles, passes.size());
  }
  // Deterministic counts: over the first kCountedPasses passes only, so
  // they do not depend on how long the run was.
  std::array<std::uint64_t, kParts> jobs{};
  std::array<std::uint64_t, kParts> part_cycles{};
  std::uint64_t triad_jobs = 0;
  std::uint64_t triad_cycles = 0;
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < kCountedPasses; ++i) {
    const PassResult& r = passes[i];
    check(r.results[kStream].back().name == "stream_triad",
          "perfbench: STREAM result order changed");
    triad_jobs += r.results[kStream].back().jobs;
    triad_cycles += r.results[kStream].back().cycles;
    for (std::size_t p = 0; p < kParts; ++p) {
      for (const hpcc::WorkloadResult& w : r.results[p]) {
        jobs[p] += w.jobs;
      }
      part_cycles[p] += r.part_cycles(Part(p));
    }
    retries += r.retries;
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a) / static_cast<double>(b);
  };
  report.set("hpcc.triad_words_per_cycle", ratio(triad_jobs, triad_cycles));
  report.set("hpcc.ra_cycles_per_update", ratio(part_cycles[kRa], jobs[kRa]));
  report.set("hpcc.gemm_macs_per_cycle",
             ratio(jobs[kGemm], part_cycles[kGemm]));
  report.set("hpcc.beff_words_per_cycle",
             ratio(jobs[kBeff], part_cycles[kBeff]));
  report.set("hpcc.beff_retries_per_pass",
             ratio(retries, kCountedPasses));
  // Rates over the module's own timing of each measured section.
  const auto rate = [&](Part p, std::size_t index) {
    double done = 0;
    double ms = 0;
    for (const PassResult& r : passes) {
      done += static_cast<double>(r.results[p][index].jobs);
      ms += r.results[p][index].wall_ms;
    }
    return done * 1e3 / ms;
  };
  report.set("triad_words_per_s", rate(kStream, 3), passes.size());
  report.set("ra_updates_per_s", rate(kRa, 0), passes.size());
  report.set("gemm_macs_per_s", rate(kGemm, 0), passes.size());
  report.set("beff_words_per_s", rate(kBeff, 0), passes.size());
  return report;
}

}  // namespace perfbench

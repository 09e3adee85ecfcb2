// perfbench: the repository benchmark's driver.
//
//   perfbench --workload <tenant_mix|hpcc|algod_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--commit <sha>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer
// metrics.  The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// the provenance stamp and every metric with its unit and sample count.
// Exit codes: 0 measured and correct, 1 an output mismatch (or a failed
// reconciliation check), 2 refused to run (bad arguments, a build without
// NDEBUG, FPGAFU_KERNEL set), 3 an internal error.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetups = 7;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by every workload with --trace 0.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"sim_latency_p50_cycles", "cycles"},
    {"sim_latency_p99_cycles", "cycles"},
    {"sim_cycles_per_job", "cycles"},
    {"sim_cycles_per_s", "cycles/s"},
    {"peak_rss_mb", "MiB"},
};

/// Printed with the end-to-end metrics but kept out of the result.
/// failed_frac is 0 by design (no workload is meant to fail) and travels
/// as "failed" / "attempted".  The host-latency percentiles moved by up to
/// 31% (p50) and 65% (p99) between runs of one build on a shared 4-vCPU
/// host, more than any bound the result allows; jobs_per_s, their
/// closed-loop counterpart, stayed within 26%.
const MetricDef kShownOnly[] = {
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"failed_frac", "ratio"},
};

/// The per-layer metrics, reported by every workload with --trace 1; a
/// layer the workload does not run reports 0.
const MetricDef kPerLayer[] = {
    {"farm.submit_ns_p50", "ns"},
    {"farm.submit_ns_p99", "ns"},
    {"farm.stats_publishes_per_kjob", "count/kjob"},
    {"farm.jobs_failed", "count"},
    {"farm.jobs_shed", "count"},
    {"farm.shard_resets", "count"},
    {"framing.ns_per_job", "ns"},
    {"transport.submit_ns_per_job", "ns"},
    {"transport.service_ns_per_job", "ns"},
    {"transport.poll_ns_per_job", "ns"},
    {"transport.service_calls_per_job", "count"},
    {"algod.hit_ratio", "ratio"},
    {"algod.loads_per_kjob", "count/kjob"},
    {"algod.evictions_per_kjob", "count/kjob"},
    {"algod.load_cycles_per_job", "cycles"},
    {"algod.drain_cycles_per_job", "cycles"},
    {"algod.ensure_ns_per_job", "ns"},
    {"sim.step_ns_per_cycle", "ns"},
    {"sim.evals_per_cycle", "count"},
    {"sim.wake_set_mean", "count"},
    {"sim.commit_set_mean", "count"},
    {"sim.max_settle_iterations", "count"},
    {"replay.sim_cycles_per_job", "cycles"},
    {"rtm.dispatch_exec_per_job", "count"},
    {"rtm.stall_lock_per_job", "cycles"},
    {"rtm.stall_unit_busy_per_job", "cycles"},
    {"rtm.stall_sync_per_job", "cycles"},
    {"rtm.arbiter_contention_per_job", "count"},
    {"hpcc.stream_ns_per_cycle", "ns"},
    {"hpcc.ra_ns_per_cycle", "ns"},
    {"hpcc.gemm_ns_per_cycle", "ns"},
    {"hpcc.beff_ns_per_cycle", "ns"},
    {"hpcc.triad_words_per_cycle", "words/cycle"},
    {"hpcc.ra_cycles_per_update", "cycles"},
    {"hpcc.gemm_macs_per_cycle", "macs/cycle"},
    {"hpcc.beff_words_per_cycle", "words/cycle"},
    {"hpcc.beff_retries_per_pass", "count"},
    {"triad_words_per_s", "words/s"},
    {"ra_updates_per_s", "updates/s"},
    {"gemm_macs_per_s", "macs/s"},
    {"beff_words_per_s", "words/s"},
    {"replay.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"calibration.ns_per_iter", "ns"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      refuse("missing value for " + key);
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        refuse("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      refuse("bad value '" + value + "' for " + key);
    }
  }
  if (a.workload != "tenant_mix" && a.workload != "hpcc" &&
      a.workload != "algod_churn") {
    refuse("--workload must be tenant_mix, hpcc or algod_churn");
  }
  if (!have_seed || !(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    refuse("need --seed <n>, --seconds <s> > 0 and --trace <0|1>");
  }
  return a;
}

/// A fixed pure-CPU loop (xorshift64* chain), timed so that runs on
/// different machines can be normalised.  Median of five repetitions.
double calibration_ns_per_iter(std::uint64_t& sink) {
  constexpr std::uint64_t kIters = 1u << 22;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t x = std::uint64_t{0x9e3779b97f4a7c15} + static_cast<std::uint64_t>(r);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      x *= 0x2545f4914f6cdd1dULL;
    }
    reps.push_back(ns_between(t0, Clock::now()) / static_cast<double>(kIters));
    sink ^= x;
  }
  return median(reps);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  refuse("this binary was compiled without NDEBUG; measure an optimised "
         "build (-DCMAKE_BUILD_TYPE=Release)");
#endif
  const Args args = parse(argc, argv);
  if (std::getenv("FPGAFU_KERNEL") != nullptr) {
    refuse("FPGAFU_KERNEL is set; the benchmark measures the "
           "construction-default settle kernel only");
  }
  try {
    const char* kernel =
        fpgafu::sim::Simulator::kernel_name(fpgafu::sim::Simulator().kernel());
    std::uint64_t sink = 0;
    const double calib = calibration_ns_per_iter(sink);
    const bool layers = args.trace == 1;

    Report report;
    if (args.workload == "hpcc") {
      report = run_hpcc(args.seed, args.seconds, layers ? 1 : kSetups, layers);
    } else if (!layers) {
      report = run_farm(args.workload, args.seed, args.seconds, kSetups, false,
                        nullptr);
    } else {
      // The Farm run gives the farm.* and algod.* counts and each tenant's
      // shard; the replay then takes the rest of the time.
      std::vector<std::size_t> shard_of;
      report = run_farm(args.workload, args.seed, 0.4 * args.seconds, 1, true,
                        &shard_of);
      if (report.correct) {
        run_replay(make_workload(args.workload, args.seed), shard_of,
                   0.6 * args.seconds, args.trace_out, report);
      }
    }
    if (layers) {
      report.set("calibration.ns_per_iter", calib);
    }

    std::printf(
        "provenance: {\"commit\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
        "\"build_type\": \"%s\", \"ndebug\": true, \"compiler\": \"%s\", "
        "\"kernel\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %s, \"trace\": %d, \"calibration_ns_per_iter\": %s, "
        "\"calibration_sink\": %llu, \"config\": %s}\n",
        json_escape(args.commit).c_str(), std::thread::hardware_concurrency(),
        json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
        kernel, args.workload.c_str(),
        static_cast<unsigned long long>(args.seed),
        number(args.seconds).c_str(), args.trace, number(calib).c_str(),
        static_cast<unsigned long long>(sink),
        report.config.empty() ? "{}" : report.config.c_str());
    for (const std::string& note : report.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    if (!report.correct) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                   report.failure.c_str());
    }

    std::string metrics;
    for (const auto& [name, value] : report.values) {
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     name.c_str());
        return 3;
      }
    }
    const auto print = [&](const MetricDef& m, bool in_result) {
      const auto it = report.values.find(m.name);
      const double v = it == report.values.end() ? 0.0 : it->second;
      const auto n = report.samples.find(m.name);
      const std::string count =
          n == report.samples.end() ? "" : " n=" + std::to_string(n->second);
      std::printf("metric %-34s %22s %-12s%s\n", m.name, number(v).c_str(),
                  m.unit, count.c_str());
      if (in_result) {
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
                   "\": {\"value\": " + number(v) + ", \"unit\": \"" +
                   m.unit + "\"}";
      }
    };
    if (layers) {
      for (const MetricDef& m : kPerLayer) {
        print(m, true);
      }
    } else {
      for (const MetricDef& m : kEndToEnd) {
        print(m, true);
      }
      for (const MetricDef& m : kShownOnly) {
        print(m, false);
      }
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        report.correct ? "true" : "false",
        static_cast<unsigned long long>(report.attempted),
        static_cast<unsigned long long>(report.failed), metrics.c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}

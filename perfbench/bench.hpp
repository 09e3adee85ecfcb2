#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host/farm.hpp"
#include "isa/program.hpp"
#include "msg/response.hpp"

/// The repository benchmark: three seeded workloads driven through the
/// public host API, end-to-end metrics from untraced runs, per-layer
/// metrics from a traced replay.  README.md states what each workload and
/// metric is for.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// What one run measured.  `values` holds metrics by name; main() prints
/// the declared metric set from it, in declaration order.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Sample count behind a metric, where it is a statistic over samples.
  std::map<std::string, std::size_t> samples;
  /// Human-readable lines printed before the result (ring wrap, failure
  /// breakdown, trace file...).
  std::vector<std::string> notes;
  /// Why `correct` is false: the first output mismatch, or a failed
  /// reconciliation check (the run then exits non-zero).
  std::string failure;
  /// The workload's configuration as a JSON object (provenance stamp).
  std::string config;

  void set(const std::string& name, double value, std::size_t n = 0) {
    values[name] = value;
    if (n > 0) {
      samples[name] = n;
    }
  }
};

/// One job a tenant can submit, with the responses host::ReferenceModel
/// gives for it.  Every job is self-contained (it writes each register it
/// reads), so the reference holds wherever and whenever it runs.
struct Job {
  fpgafu::isa::Program program;
  std::vector<fpgafu::msg::Response> expected;
};

/// One closed-loop client: it keeps `in_flight` jobs outstanding and
/// submits the next job of its ring as each one resolves.
struct Tenant {
  /// Algorithm images the session declares (empty: a plain session).
  std::vector<std::string> required;
  std::size_t in_flight = 1;
  std::vector<Job> jobs;  ///< cycled in order
  /// For plain sessions whose jobs use registers owned per shard: the
  /// shard the registers were allocated on (run_farm checks placement).
  std::size_t shard = 0;
};

/// A Farm workload: the Farm configuration and the generated tenants.
struct FarmWorkload {
  std::string name;
  fpgafu::host::FarmConfig config;
  std::vector<Tenant> tenants;
  /// Replay pass length in jobs (the traced run's unit of work).
  std::size_t replay_jobs = 0;
  /// The workload's knobs as a JSON object, for the provenance stamp.
  std::string config_json;
};

/// Generate `tenant_mix` or `algod_churn`.  The seed fixes every program
/// and operand.
FarmWorkload make_workload(const std::string& name, std::uint64_t seed);

/// Untraced closed-loop Farm run: `setups` full set-ups (construction,
/// oracle precompute, warm-up), then `seconds` of measured closed loop on
/// the last one.  Fills the end-to-end metrics.  With `layer_metrics` it
/// instead times each submit and fills the farm.* and algod.* per-layer
/// metrics, and records each tenant's shard in `shard_of`.
Report run_farm(const std::string& workload, std::uint64_t seed,
                double seconds, std::size_t setups, bool layer_metrics,
                std::vector<std::size_t>* shard_of);

/// Single-shard, inline replay of one shard's job stream through the
/// layer APIs (split_frame / ReliableTransport / FuManager / Simulator),
/// untraced and traced passes alternating for `seconds`.  Fills the
/// framing.*, transport.*, algod.ensure_ns_per_job, sim.*, rtm.*,
/// replay.* and trace.* metrics into `report`; writes the first traced
/// pass as Chrome trace-event JSON to `trace_path` when non-empty.
void run_replay(const FarmWorkload& w, const std::vector<std::size_t>& shard_of,
                double seconds, const std::string& trace_path,
                Report& report);

/// The hpcc workload: passes of STREAM, RandomAccess, GEMM and b_eff on
/// the faulty link, each checked against its oracle.  `layer_metrics`
/// selects the per-layer (hpcc.*) metric set instead of the end-to-end.
Report run_hpcc(std::uint64_t seed, double seconds, std::size_t setups,
                bool layer_metrics);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench

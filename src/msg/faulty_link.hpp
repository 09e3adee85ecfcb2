#pragma once

#include <cstdint>
#include <string>

#include "msg/link.hpp"
#include "sim/counters.hpp"
#include "util/rng.hpp"

namespace fpgafu::msg {

/// Per-direction fault rates.  Rates are in parts-per-million per word so
/// integer arithmetic stays exact; `jitter_max` is the largest extra flight
/// latency (cycles) added uniformly at random to each word.
struct FaultRates {
  std::uint32_t drop_ppm = 0;
  std::uint32_t corrupt_ppm = 0;
  std::uint32_t duplicate_ppm = 0;
  std::uint32_t jitter_max = 0;
};

/// Seeded configuration for a FaultyLink.  The default (all rates zero)
/// behaves bit- and cycle-identically to the plain Link, which is what the
/// differential tests pin down.
struct FaultConfig {
  std::uint64_t seed = 0x5eedULL;
  FaultRates down;  ///< host -> FPGA
  FaultRates up;    ///< FPGA -> host
};

/// A Link that deterministically injects word-level transport faults:
/// drops, single-bit corruption, duplication, and latency jitter, each
/// independently configurable per direction.  All randomness comes from one
/// seeded generator, so a given (seed, traffic) pair always produces the
/// same fault pattern — soak failures replay exactly.
///
/// Fault precedence per word: drop, else corrupt, else duplicate; jitter is
/// independent.  Disabled fault classes draw no random numbers, so enabling
/// one class does not perturb the pattern of another.
class FaultyLink : public Link {
 public:
  FaultyLink(sim::Simulator& sim, std::string name, LinkTiming down_timing,
             LinkTiming up_timing, FaultConfig fault_config,
             std::size_t down_capacity = 0, std::size_t up_capacity = 0);

  const FaultConfig& fault_config() const { return config_; }

  /// Injection statistics: link.{down,up}_{dropped,corrupted,duplicated}.
  const sim::Counters& fault_counters() const { return counters_; }

  void reset() override;

 protected:
  Injection classify(bool downstream, LinkWord& word) override;

 private:
  FaultConfig config_;
  Xoshiro256 rng_;
  sim::Counters counters_;
  sim::Counters::Handle dropped_[2];
  sim::Counters::Handle corrupted_[2];
  sim::Counters::Handle duplicated_[2];
};

}  // namespace fpgafu::msg

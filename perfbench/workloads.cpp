// Job-stream generators for the two Farm workloads.  Everything a run
// submits is generated here from the seed, with its reference responses,
// before any timing starts.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fu/stateless_units.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fpgafu;

namespace {

/// Jobs pregenerated per algod_churn tenant; a tenant cycles its ring.
constexpr std::size_t kRingJobs = 32;

std::vector<msg::Response> reference(const host::FarmConfig& fc,
                                     const isa::Program& program) {
  host::ReferenceModel model(fc.system.rtm);
  return model.run(program);
}

std::string reg(unsigned r) {
  std::string name = "r";
  name += std::to_string(r);
  return name;
}

// -- tenant_mix -------------------------------------------------------------

constexpr std::size_t kMixShards = 2;
constexpr std::size_t kMixTenants = 24;
/// Data registers r0..r23 are owned in pairs by the 12 sessions of a shard;
/// r24..r30 are the shared scratch set of the ALU jobs.
constexpr unsigned kScratchBase = 24;
/// Each tenant's ring: 40 jobs, 32 of them (80%) tiny.
constexpr std::size_t kMixRingJobs = 40;
constexpr std::size_t kMixTinyJobs = 32;

/// PUT a; ADD b, a, a; GET b on the session's own register pair.
isa::Program tiny_job(unsigned a, unsigned b, Xoshiro256& rng) {
  return isa::Assembler::assemble(
      "PUT " + reg(a) + ", #" + std::to_string(rng.below(1u << 20)) + "\n" +
      "ADD " + reg(b) + ", " + reg(a) + ", " + reg(a) + "\nGET " + reg(b) +
      "\n");
}

/// 56 instructions on the shared scratch registers: seven rounds of four
/// PUTs, ADD, SUB, XOR and one GET.
isa::Program alu_job(Xoshiro256& rng) {
  std::string src;
  for (int round = 0; round < 7; ++round) {
    for (unsigned r = 0; r < 4; ++r) {
      src += "PUT " + reg(kScratchBase + r) + ", #" +
             std::to_string(rng.below(1u << 20)) + "\n";
    }
    src += "ADD r28, r24, r25\nSUB r29, r26, r27\nXOR r30, r28, r29\n"
           "GET r30\n";
  }
  return isa::Assembler::assemble(src);
}

// -- algod_churn ------------------------------------------------------------

constexpr std::size_t kChurnShards = 2;
constexpr std::size_t kChurnTenants = 48;
constexpr std::size_t kChurnSlots = 3;
/// Seed of the tenants' image demand draw.  The demand profile is part of
/// the workload's definition (which images are hot, how sessions place on
/// shards); the run's seed draws the jobs' operands.
constexpr std::uint64_t kDemandSeed = 0xa190d'0000'0002ULL;

const char* const kImageNames[] = {"arith",  "logic", "shift",
                                   "muldiv", "float", "trig"};
constexpr std::size_t kImages = 6;

std::unique_ptr<fu::FunctionalUnit> make_unit_for(sim::Simulator& sim,
                                                  isa::FunctionCode code) {
  fu::StatelessConfig ucfg;
  ucfg.width = 32;
  switch (code) {
    case isa::fc::kArith:
      return fu::make_arithmetic_unit(sim, ucfg);
    case isa::fc::kLogic:
      return fu::make_logic_unit(sim, ucfg);
    case isa::fc::kShift:
      return fu::make_shift_unit(sim, ucfg);
    case isa::fc::kMulDiv:
      ucfg.skeleton = fu::Skeleton::kFsm;
      ucfg.execute_cycles = 0;
      return fu::make_muldiv_unit(sim, ucfg);
    case isa::fc::kFloat:
      return fu::make_fp32_unit(sim, ucfg);
    case isa::fc::kTrig:
      ucfg.skeleton = fu::Skeleton::kFsm;
      ucfg.execute_cycles = 0;
      return fu::make_trig_unit(sim, ucfg);
    default:
      return nullptr;
  }
}

/// The six single-code images of the algod bench, with unequal reload
/// costs (100..600 cycles).
std::vector<host::AlgorithmImage> catalogue() {
  const isa::FunctionCode codes[kImages] = {
      isa::fc::kArith,  isa::fc::kLogic, isa::fc::kShift,
      isa::fc::kMulDiv, isa::fc::kFloat, isa::fc::kTrig};
  std::vector<host::AlgorithmImage> images;
  for (std::size_t i = 0; i < kImages; ++i) {
    host::AlgorithmImage img;
    img.name = kImageNames[i];
    img.codes = {codes[i]};
    img.load_cycles = 100 * (i + 1);
    img.factory = make_unit_for;
    images.push_back(std::move(img));
  }
  return images;
}

/// Zipf(s = 1) draw over the catalogue: image k with weight 1/(k+1).
std::size_t zipf_image(Xoshiro256& rng) {
  static const std::vector<std::uint64_t> cdf = [] {
    std::vector<std::uint64_t> c;
    double acc = 0;
    for (std::size_t k = 0; k < kImages; ++k) {
      acc += 1.0 / static_cast<double>(k + 1);
      c.push_back(static_cast<std::uint64_t>(std::llround(acc * 1e6)));
    }
    return c;
  }();
  const std::uint64_t u = rng.below(cdf.back());
  return static_cast<std::size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Self-contained job exercising exactly `images` (one op + GET each).
isa::Program image_job(const std::vector<std::string>& images,
                       Xoshiro256& rng) {
  std::string src;
  src += "PUT r1, #" + std::to_string(rng.below(1u << 20)) + "\n";
  src += "PUT r2, #" + std::to_string(1 + rng.below(1u << 10)) + "\n";
  for (const std::string& name : images) {
    if (name == "arith") {
      src += "ADD r3, r1, r2\nGET r3\n";
    } else if (name == "logic") {
      src += "XOR r4, r1, r2\nGET r4\n";
    } else if (name == "shift") {
      src += "SHR r5, r1, r2\nGET r5\n";
    } else if (name == "muldiv") {
      src += "MUL r6, r1, r2\nGET r6\n";
    } else if (name == "float") {
      src += "FMUL r7, r1, r2\nGET r7\n";
    } else if (name == "trig") {
      src += "SIN r3, r1\nGET r3\n";
    }
  }
  return isa::Assembler::assemble(src);
}

top::SystemConfig bare_system() {
  top::SystemConfig sc;
  sc.with_arithmetic = false;
  sc.with_logic = false;
  sc.with_shift = false;
  sc.with_muldiv = false;
  sc.with_float = false;
  sc.with_trig = false;
  return sc;
}

std::size_t population(const std::vector<Tenant>& tenants) {
  std::size_t n = 0;
  for (const Tenant& t : tenants) {
    n += t.in_flight;
  }
  return n;
}

FarmWorkload make_tenant_mix(std::uint64_t seed) {
  FarmWorkload w;
  w.name = "tenant_mix";
  w.config.shards = kMixShards;
  w.config.transport.window = 8;
  w.config.coalesce_max_programs = 16;
  w.config.coalesce_flush_cycles = 64;
  Xoshiro256 rng(seed ^ 0x7e4a47'0000'0001ULL);
  for (std::size_t t = 0; t < kMixTenants; ++t) {
    Tenant tenant;
    tenant.in_flight = 2;
    // create_session() places session t on shard t % shards; the session
    // owns register pair (2l, 2l+1) there, l = its index on the shard.
    tenant.shard = t % kMixShards;
    const auto local = static_cast<unsigned>(t / kMixShards);
    // Exactly kMixTinyJobs of every ring are tiny, in a seeded order, so
    // the seed moves operands and interleaving but not the mix itself.
    std::vector<std::uint8_t> tiny(kMixRingJobs, 0);
    std::fill_n(tiny.begin(), kMixTinyJobs, 1);
    for (std::size_t j = kMixRingJobs - 1; j > 0; --j) {
      std::swap(tiny[j], tiny[rng.below(j + 1)]);
    }
    for (std::size_t j = 0; j < kMixRingJobs; ++j) {
      Job job;
      job.program = tiny[j] != 0 ? tiny_job(2 * local, 2 * local + 1, rng)
                            : alu_job(rng);
      job.expected = reference(w.config, job.program);
      tenant.jobs.push_back(std::move(job));
    }
    w.tenants.push_back(std::move(tenant));
  }
  w.config.queue_capacity = population(w.tenants);
  w.replay_jobs = 2048;
  w.config_json =
      "{\"shards\": 2, \"window\": 8, \"coalesce_max_programs\": 16, "
      "\"coalesce_max_words\": 256, \"coalesce_flush_cycles\": 64, "
      "\"tenants\": 24, \"in_flight_per_tenant\": 2, \"queue_capacity\": " +
      std::to_string(w.config.queue_capacity) +
      ", \"ring_jobs_per_tenant\": " + std::to_string(kMixRingJobs) +
      ", \"tiny_jobs_per_ring\": " + std::to_string(kMixTinyJobs) +
      ", \"replay_jobs\": " + std::to_string(w.replay_jobs) + "}";
  return w;
}

FarmWorkload make_algod_churn(std::uint64_t seed) {
  FarmWorkload w;
  w.name = "algod_churn";
  w.config.shards = kChurnShards;
  w.config.system = bare_system();
  w.config.transport.window = 4;
  w.config.fu_images = catalogue();
  w.config.fu_slots = kChurnSlots;
  Xoshiro256 demand(kDemandSeed);
  Xoshiro256 rng(seed ^ kDemandSeed);
  std::string draws;
  for (std::size_t t = 0; t < kChurnTenants; ++t) {
    Tenant tenant;
    tenant.in_flight = 1;
    const std::size_t count = demand.chance(1, 2) ? 2 : 1;
    while (tenant.required.size() < count) {
      const std::string name = kImageNames[zipf_image(demand)];
      if (std::find(tenant.required.begin(), tenant.required.end(), name) ==
          tenant.required.end()) {
        tenant.required.push_back(name);
      }
    }
    for (std::size_t j = 0; j < kRingJobs; ++j) {
      Job job;
      job.program = image_job(tenant.required, rng);
      job.expected = reference(w.config, job.program);
      tenant.jobs.push_back(std::move(job));
    }
    draws += std::string(draws.empty() ? "" : ", ") + "\"" +
             tenant.required.front() +
             (count == 2 ? "+" + tenant.required.back() : "") + "\"";
    w.tenants.push_back(std::move(tenant));
  }
  w.config.queue_capacity = population(w.tenants);
  w.replay_jobs = 768;
  w.config_json =
      "{\"shards\": 2, \"window\": 4, \"coalesce_max_programs\": 1, "
      "\"fu_slots\": 3, \"policy\": \"lru\", \"images\": 6, "
      "\"tenants\": 48, \"in_flight_per_tenant\": 1, \"queue_capacity\": " +
      std::to_string(w.config.queue_capacity) +
      ", \"ring_jobs_per_tenant\": " + std::to_string(kRingJobs) +
      ", \"replay_jobs\": " + std::to_string(w.replay_jobs) +
      ", \"required\": [" + draws + "]}";
  return w;
}

}  // namespace

FarmWorkload make_workload(const std::string& name, std::uint64_t seed) {
  return name == "tenant_mix" ? make_tenant_mix(seed) : make_algod_churn(seed);
}

}  // namespace perfbench

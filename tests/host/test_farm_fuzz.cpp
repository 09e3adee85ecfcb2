// Differential fuzzer for the Farm scheduler against the sequential
// reference model.
//
// Each case draws a random FarmConfig (shard count including inline mode,
// transport window, coalescing caps and flush timer, an optional
// algorithm-on-demand catalogue under slot pressure with an LRU or
// cost-aware replacement policy, optional upstream link faults) and a
// random multi-session job stream.  Every session owns a
// disjoint block of data and flag registers on its shard, so its jobs form
// one sequential register history no matter how the shard interleaves,
// pipelines or coalesces them with other sessions' jobs.  Every job must
// return exactly what a per-session ReferenceModel replay of the session's
// jobs, in submission order, returns for it.  The only failure a case may
// see is FarmError{kUnitUnavailable} on a probe job that uses a function
// code its session never declared.
//
// Every decision comes from one Xoshiro256 stream per case seed, and every
// failure message names the seed.  `FPGAFU_FARM_FUZZ_CONFIGS` scales the
// case count (default 256).

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fu/stateless_units.hpp"
#include "host/farm.hpp"
#include "host/framing.hpp"
#include "host/reference_model.hpp"
#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

std::size_t fuzz_config_count() {
  if (const char* env = std::getenv("FPGAFU_FARM_FUZZ_CONFIGS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 256;
}

// Register geometry: every shard is cut into kBlocksPerShard blocks of
// kBlockData data and kBlockFlags flag registers, one block per session, so
// even a case whose sessions all land on one shard never shares a register.
constexpr std::size_t kBlocksPerShard = 8;
constexpr std::size_t kBlockData = 8;
constexpr std::size_t kBlockFlags = 2;
constexpr std::size_t kMaxSessions = kBlocksPerShard;

/// The six stateless case-study units, by image name and function code.
struct UnitKind {
  const char* name;
  isa::FunctionCode code;
};
constexpr UnitKind kUnits[] = {
    {"arith", isa::fc::kArith}, {"logic", isa::fc::kLogic},
    {"shift", isa::fc::kShift}, {"muldiv", isa::fc::kMulDiv},
    {"float", isa::fc::kFloat}, {"trig", isa::fc::kTrig},
};
constexpr std::size_t kUnitCount = sizeof(kUnits) / sizeof(kUnits[0]);

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

/// One single-code image per case-study unit, with unequal load costs.
std::vector<AlgorithmImage> catalogue() {
  std::vector<AlgorithmImage> images;
  for (std::size_t i = 0; i < kUnitCount; ++i) {
    AlgorithmImage img;
    img.name = kUnits[i].name;
    img.codes = {kUnits[i].code};
    img.load_cycles = 100 * (i + 1);
    img.factory = make_unit_for;
    images.push_back(std::move(img));
  }
  return images;
}

/// A random variety for a functional-unit code.
isa::VarietyCode random_variety(Xoshiro256& rng, isa::FunctionCode code) {
  switch (code) {
    case isa::fc::kArith:
      return isa::arith::variety(
          isa::arith::kAllOps[rng.below(isa::arith::kAllOps.size())]);
    case isa::fc::kLogic:
      return isa::logic::variety(
          isa::logic::kAllOps[rng.below(isa::logic::kAllOps.size())]);
    case isa::fc::kShift:
      return isa::shift::variety(
          isa::shift::kAllOps[rng.below(isa::shift::kAllOps.size())]);
    case isa::fc::kMulDiv:
      return isa::muldiv::variety(
          isa::muldiv::kAllOps[rng.below(isa::muldiv::kAllOps.size())]);
    case isa::fc::kFloat:
      return isa::fp32::variety(
          isa::fp32::kAllOps[rng.below(isa::fp32::kAllOps.size())]);
    default:
      return isa::trig::variety(
          isa::trig::kAllOps[rng.below(isa::trig::kAllOps.size())]);
  }
}

/// The registers one session owns on its shard.
struct Block {
  isa::RegNum data = 0;   ///< first of kBlockData data registers
  isa::RegNum flags = 0;  ///< first of kBlockFlags flag registers
};

isa::Instruction rtm_op(isa::RtmOp op) {
  isa::Instruction inst;
  inst.function = isa::fc::kRtm;
  inst.variety = static_cast<isa::VarietyCode>(op);
  return inst;
}

/// A random job that touches only `block`'s registers, using functional
/// units from `codes`.  Mostly tiny (the coalescing regime), sometimes long
/// enough to cross the word caps.  With `errors`, some instructions name a
/// register past the end of the file or an unattached function code: their
/// error responses are value-independent and their writes never land.
isa::Program session_job(Xoshiro256& rng, const Block& block,
                         const std::vector<isa::FunctionCode>& codes,
                         std::size_t data_regs, bool errors) {
  auto reg = [&] {
    return static_cast<isa::RegNum>(block.data + rng.below(kBlockData));
  };
  auto flag = [&] {
    return static_cast<isa::RegNum>(block.flags + rng.below(kBlockFlags));
  };
  isa::Program p;
  const std::size_t n = rng.chance(1, 6) ? rng.range(8, 20) : rng.range(1, 4);
  for (std::size_t i = 0; i < n; ++i) {
    if (errors && rng.chance(1, 20)) {
      if (rng.chance(1, 2)) {
        isa::Instruction get = rtm_op(isa::RtmOp::kGet);
        get.src1 = static_cast<isa::RegNum>(data_regs + rng.below(4));
        p.emit(get);
      } else {
        isa::Instruction bad;
        bad.function = 0x5a;  // attached nowhere, declared by no image
        bad.dst1 = reg();
        p.emit(bad);
      }
      continue;
    }
    const std::uint64_t roll = rng.below(100);
    if (roll < 30) {
      p.emit_put(reg(), rng.next());
    } else if (roll < 55) {
      isa::Instruction get = rtm_op(isa::RtmOp::kGet);
      get.src1 = reg();
      p.emit(get);
    } else if (roll < 60) {
      const std::size_t off = rng.below(kBlockData);
      const auto count =
          static_cast<std::uint8_t>(rng.range(1, kBlockData - off));
      p.emit_get_vec(static_cast<isa::RegNum>(block.data + off), count);
    } else if (roll < 65) {
      const std::size_t off = rng.below(kBlockData);
      std::vector<isa::Word> values(rng.range(1, kBlockData - off));
      for (isa::Word& v : values) {
        v = rng.next();
      }
      p.emit_put_vec(static_cast<isa::RegNum>(block.data + off), values);
    } else if (roll < 70) {
      isa::Instruction inst = rtm_op(rng.chance(1, 2) ? isa::RtmOp::kGetFlags
                                                      : isa::RtmOp::kPutFlags);
      inst.src_flag = flag();
      inst.dst_flag = flag();
      inst.aux = static_cast<std::uint8_t>(rng.below(32));
      p.emit(inst);
    } else if (roll < 75) {
      isa::Instruction inst = rtm_op(rng.chance(1, 2) ? isa::RtmOp::kCopy
                                                      : isa::RtmOp::kCopyFlags);
      inst.dst1 = reg();
      inst.src1 = reg();
      inst.dst_flag = flag();
      inst.src_flag = flag();
      p.emit(inst);
    } else if (roll < 78) {
      p.emit(rtm_op(isa::RtmOp::kSync));
    } else if (roll < 83) {
      isa::Instruction inst = rtm_op(isa::RtmOp::kPutImm);
      inst.dst1 = reg();
      inst.aux = static_cast<std::uint8_t>(rng.below(256));
      p.emit(inst);
    } else {
      isa::Instruction inst;
      inst.function = codes[rng.below(codes.size())];
      inst.variety = random_variety(rng, inst.function);
      inst.dst1 = reg();
      inst.src1 = reg();
      inst.src2 = reg();
      inst.aux = reg();  // a second destination (DIVMOD); may hit dst1
      inst.dst_flag = flag();
      inst.src_flag = flag();
      p.emit(inst);
    }
  }
  return p;
}

/// A probe: a job built around one op on `code`, which its session did not
/// declare.  A probing session runs nothing but probes, and a probe reads
/// only registers it wrote first and a flag register no probe writes, so a
/// failed probe (whose op never lands) leaves nothing a later probe could
/// observe.
isa::Program probe_job(Xoshiro256& rng, const Block& block,
                       isa::FunctionCode code) {
  const auto a = static_cast<isa::RegNum>(block.data);
  const auto b = static_cast<isa::RegNum>(block.data + 1);
  const auto c = static_cast<isa::RegNum>(block.data + 2);
  const auto d = static_cast<isa::RegNum>(block.data + 3);
  isa::Program p;
  p.emit_put(a, rng.next());
  p.emit_put(b, 1 + rng.below(1u << 10));
  p.emit_put(c, rng.next());  // defined even when the op writes no data
  isa::Instruction op;
  op.function = code;
  op.variety = random_variety(rng, code);
  op.dst1 = c;
  op.src1 = a;
  op.src2 = b;
  op.aux = d;
  op.dst_flag = static_cast<isa::RegNum>(block.flags);
  op.src_flag = static_cast<isa::RegNum>(block.flags + 1);
  p.emit(op);
  isa::Instruction get = rtm_op(isa::RtmOp::kGet);
  get.src1 = c;
  p.emit(get);
  return p;
}

/// How one job hands its result back.
enum class Surface : std::uint8_t { kFuture, kCallback, kStream };

struct Job {
  std::size_t session = 0;
  isa::Program program;
  bool probe = false;
  Surface surface = Surface::kFuture;
  std::vector<msg::Response> expected;
};

struct Outcome {
  bool done = false;
  std::vector<msg::Response> responses;
  std::exception_ptr error;
  std::future<std::vector<msg::Response>> future;
};

/// Collects callback and stream completions from worker threads.
struct Collector {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Outcome> outcomes;
  std::size_t finished = 0;

  void finish(std::size_t i, std::vector<msg::Response> r,
              std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(m);
    if (!r.empty()) {
      outcomes[i].responses = std::move(r);
    }
    outcomes[i].error = e;
    outcomes[i].done = true;
    ++finished;
    cv.notify_all();
  }
};

struct Case {
  std::uint64_t seed = 0;
  FarmConfig config;
  bool algod = false;
  bool cost_aware = false;  ///< algod replacement policy: cost-aware or LRU
  bool faults = false;
};

Case make_case(std::uint64_t seed, Xoshiro256& rng) {
  Case c;
  c.seed = seed;
  FarmConfig& fc = c.config;
  fc.shards = rng.below(4);
  fc.transport.window = rng.range(1, 8);
  fc.coalesce_max_programs = rng.range(1, 8);
  constexpr std::size_t kWordCaps[] = {0, 16, 256};
  fc.coalesce_max_words = kWordCaps[rng.below(3)];
  fc.coalesce_flush_cycles = rng.chance(1, 2) ? 0 : 64;
  fc.queue_capacity = fc.shards == 0 ? 64 : rng.range(4, 64);
  fc.system.rtm.data_regs = kBlocksPerShard * kBlockData;
  fc.system.rtm.flag_regs = kBlocksPerShard * kBlockFlags;
  c.algod = rng.chance(1, 2);
  if (c.algod) {
    fc.system.with_arithmetic = false;
    fc.system.with_logic = false;
    fc.system.with_shift = false;
    fc.system.with_muldiv = false;
    fc.system.with_float = false;
    fc.system.with_trig = false;
    fc.fu_images = catalogue();
    fc.fu_slots = rng.range(2, 4);
    c.cost_aware = rng.chance(1, 2);
    if (c.cost_aware) {
      fc.fu_policy = [] { return std::make_shared<CostAwarePolicy>(); };
    }
  }
  c.faults = rng.chance(1, 2);
  if (c.faults) {
    msg::FaultConfig f;
    f.seed = rng.next();
    f.up.drop_ppm = 10'000;
    f.up.corrupt_ppm = 10'000;
    f.up.duplicate_ppm = 10'000;
    f.up.jitter_max = 3;
    f.down.jitter_max = 2;
    fc.system.link_faults = f;
    fc.transport.response_timeout = 500;
    fc.transport.max_attempts = 25;
  }
  return c;
}

std::string describe(const Case& c) {
  const FarmConfig& fc = c.config;
  return "farm fuzz seed " + std::to_string(c.seed) + " (shards " +
         std::to_string(fc.shards) + ", window " +
         std::to_string(fc.transport.window) + ", coalesce " +
         std::to_string(fc.coalesce_max_programs) + "/" +
         std::to_string(fc.coalesce_max_words) + "w/" +
         std::to_string(fc.coalesce_flush_cycles) + "cy, algod " +
         (c.algod ? "slots " + std::to_string(fc.fu_slots) +
                        (c.cost_aware ? " cost-aware" : " lru")
                  : "off") +
         ", faults " + (c.faults ? "on" : "off") + ")";
}

bool is_unit_unavailable(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const FarmError& fe) {
    return fe.kind() == FarmError::Kind::kUnitUnavailable;
  } catch (...) {
    return false;
  }
}

std::string error_text(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "non-standard exception";
  }
}

void run_case(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Case c = make_case(seed, rng);
  const std::string who = describe(c);
  SCOPED_TRACE(who);
  Farm farm(c.config);

  // Sessions, their shard placement and their register blocks.
  struct Session {
    Farm::SessionId id = 0;
    Block block;
    std::vector<isa::FunctionCode> codes;  ///< declared (algod) or all
    isa::FunctionCode probe_code = 0;      ///< undeclared, probes only
    bool prober = false;
  };
  std::vector<std::size_t> blocks_used(farm.shard_count(), 0);
  std::vector<Session> sessions(rng.range(1, kMaxSessions));
  for (Session& s : sessions) {
    if (c.algod) {
      std::vector<std::string> required;
      const std::size_t first = rng.below(kUnitCount);
      required.push_back(kUnits[first].name);
      s.codes.push_back(kUnits[first].code);
      const std::size_t second = rng.below(kUnitCount);
      if (second != first && rng.chance(1, 2)) {
        required.push_back(kUnits[second].name);
        s.codes.push_back(kUnits[second].code);
      }
      s.prober = rng.chance(1, 5);
      if (s.prober) {
        for (std::size_t k = 1; k < kUnitCount; ++k) {
          const UnitKind& u = kUnits[(first + k) % kUnitCount];
          if (std::find(s.codes.begin(), s.codes.end(), u.code) ==
              s.codes.end()) {
            s.probe_code = u.code;
            break;
          }
        }
      }
      s.id = farm.create_session(std::move(required));
    } else {
      for (const UnitKind& u : kUnits) {
        s.codes.push_back(u.code);
      }
      s.id = farm.create_session();
    }
    const std::size_t shard = farm.shard_of(s.id);
    const std::size_t b = blocks_used[shard]++;
    ASSERT_LT(b, kBlocksPerShard) << who;
    s.block.data = static_cast<isa::RegNum>(b * kBlockData);
    s.block.flags = static_cast<isa::RegNum>(b * kBlockFlags);
  }

  // The job stream, and each job's expected responses from its session's
  // sequential replay (sequence numbers renumbered to the job's own
  // program order, as the transport returns them).
  std::vector<ReferenceModel> models(sessions.size(),
                                     ReferenceModel(c.config.system.rtm));
  std::vector<std::uint16_t> groups_fed(sessions.size(), 0);
  std::vector<Job> jobs(rng.range(8, 64));
  for (Job& j : jobs) {
    j.session = rng.below(sessions.size());
    const Session& s = sessions[j.session];
    j.probe = s.prober;
    j.program = j.probe ? probe_job(rng, s.block, s.probe_code)
                        : session_job(rng, s.block, s.codes,
                                      c.config.system.rtm.data_regs,
                                      rng.chance(1, 4));
    j.surface = static_cast<Surface>(rng.below(3));
    ReferenceModel& model = models[j.session];
    const std::size_t before = model.responses().size();
    model.run(j.program);
    for (std::size_t k = before; k < model.responses().size(); ++k) {
      msg::Response r = model.responses()[k];
      r.seq = static_cast<std::uint16_t>(r.seq - groups_fed[j.session]);
      j.expected.push_back(r);
    }
    groups_fed[j.session] = static_cast<std::uint16_t>(
        groups_fed[j.session] + split_groups(j.program).size());
  }

  Collector col;
  col.outcomes.resize(jobs.size());
  std::size_t callbacks = 0;
  auto submit = [&](std::size_t i) {
    const Job& j = jobs[i];
    const Farm::SessionId sid = sessions[j.session].id;
    switch (j.surface) {
      case Surface::kFuture:
        col.outcomes[i].future = farm.submit(sid, j.program);
        break;
      case Surface::kCallback:
        farm.submit_async(sid, j.program,
                          [&col, i](std::vector<msg::Response> r,
                                    std::exception_ptr e) {
                            col.finish(i, std::move(r), e);
                          });
        break;
      case Surface::kStream:
        farm.submit_stream(
            sid, j.program,
            [&col, i](const msg::Response& r) {
              std::lock_guard<std::mutex> lk(col.m);
              col.outcomes[i].responses.push_back(r);
            },
            [&col, i](std::exception_ptr e) { col.finish(i, {}, e); });
        break;
    }
  };
  // An inline farm's first job completes through its own callback below.
  for (std::size_t i = farm.inline_mode() ? 1 : 0; i < jobs.size(); ++i) {
    if (jobs[i].surface != Surface::kFuture) {
      ++callbacks;
    }
  }
  if (farm.inline_mode()) {
    // An inline farm runs a submit to completion before it returns, so
    // queue the rest of the stream from inside the first job's completion:
    // the outer drain then sees a backlog it can pipeline and coalesce.
    std::exception_ptr first_error;
    bool first_done = false;
    farm.submit_async(sessions[jobs[0].session].id, jobs[0].program,
                      [&](std::vector<msg::Response> r, std::exception_ptr e) {
                        col.outcomes[0].responses = std::move(r);
                        first_error = e;
                        first_done = true;
                        for (std::size_t i = 1; i < jobs.size(); ++i) {
                          submit(i);
                        }
                      });
    ASSERT_TRUE(first_done) << who;
    col.outcomes[0].error = first_error;
    col.outcomes[0].done = true;
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      submit(i);
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Outcome& o = col.outcomes[i];
    if (o.future.valid()) {
      try {
        o.responses = o.future.get();
      } catch (...) {
        o.error = std::current_exception();
      }
      o.done = true;
    }
  }
  {
    std::unique_lock<std::mutex> lk(col.m);
    col.cv.wait(lk, [&] { return col.finished >= callbacks; });
  }
  farm.shutdown();

  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const Outcome& o = col.outcomes[i];
    const std::string where = who + ": job " + std::to_string(i) +
                              " of session " + std::to_string(j.session);
    ASSERT_TRUE(o.done) << where;
    if (o.error) {
      ++failures;
      ASSERT_TRUE(j.probe && is_unit_unavailable(o.error))
          << where << " failed: " << error_text(o.error);
      continue;
    }
    ASSERT_EQ(o.responses.size(), j.expected.size()) << where;
    for (std::size_t r = 0; r < o.responses.size(); ++r) {
      ASSERT_EQ(o.responses[r], j.expected[r])
          << where << " response " << r << ": "
          << msg::to_string(o.responses[r]) << " vs reference "
          << msg::to_string(j.expected[r]);
    }
  }
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.shard_resets"), 0u) << who;
  EXPECT_EQ(totals.get("farm.jobs_failed"), failures) << who;
  EXPECT_EQ(totals.get("farm.jobs_completed") + failures, jobs.size()) << who;
}

TEST(FarmFuzz, RandomConfigsMatchPerSessionReferenceReplay) {
  const std::size_t configs = fuzz_config_count();
  for (std::size_t i = 0; i < configs; ++i) {
    run_case(0xFA2A0000ULL + i);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace fpgafu::host

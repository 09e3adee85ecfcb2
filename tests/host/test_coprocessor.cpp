#include "host/coprocessor.hpp"

#include <gtest/gtest.h>

#include "fu/cam_unit.hpp"
#include "fu/prng_unit.hpp"
#include "isa/assembler.hpp"
#include "isa/rtm_ops.hpp"
#include "support/error_text.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

TEST(Coprocessor, ScalarRegisterHelpers) {
  top::System sys({});
  Coprocessor copro(sys);
  copro.write_reg(3, 0xabcdef);
  copro.write_reg(4, 0x123456);
  EXPECT_EQ(copro.read_reg(3), 0xabcdefu);
  EXPECT_EQ(copro.read_reg(4), 0x123456u);
}

TEST(Coprocessor, BurstRegisterHelpers) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 64;
  top::SystemConfig cfg;
  cfg.rtm = rcfg;
  top::System sys(cfg);
  Coprocessor copro(sys);
  Xoshiro256 rng(14);
  std::vector<isa::Word> values(20);
  for (auto& v : values) {
    v = rng.below(1u << 31);
  }
  copro.write_regs(10, values);
  EXPECT_EQ(copro.read_regs(10, 20), values);
  // Mixed access: scalar read of a burst-written register.
  EXPECT_EQ(copro.read_reg(15), values[5]);
}

TEST(Coprocessor, ReadRegOfBadRegisterThrows) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 8;
  top::SystemConfig cfg;
  cfg.rtm = rcfg;
  top::System sys(cfg);
  Coprocessor copro(sys);
  // The error response does not match the expected data record.  It is
  // the session's first response (seq 0.0) and carries the offending
  // GET r200 instruction word as its payload.
  EXPECT_EQ(testing::sim_error_text([&] { copro.read_reg(200); }),
            "read_reg received unexpected response: ERROR seq=0.0 code=0x02 "
            "payload=0x600000000c800");
}

TEST(Coprocessor, AsyncSubmitPollOverlap) {
  // submit() is fire-and-forget; poll() drains responses as the simulation
  // advances — the host can overlap issue with completion.
  top::System sys({});
  Coprocessor copro(sys);
  isa::Program p;
  for (int i = 0; i < 10; ++i) {
    p.emit_put(1, static_cast<isa::Word>(100 + i));
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = 1;
    p.emit(get);
  }
  copro.submit(p);
  std::vector<isa::Word> got;
  while (got.size() < 10) {
    sys.simulator().step();
    while (auto r = copro.poll()) {
      got.push_back(r->payload);
    }
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              static_cast<isa::Word>(100 + i));
  }
  EXPECT_EQ(copro.responses_received(), 10u);
}

TEST(Coprocessor, StatefulLibraryUnitsThroughTheSystem) {
  // The paper's three named stateful families, attached side by side and
  // driven purely through instructions.
  top::System sys({});
  fu::PrngUnit prng(sys.simulator(), "prng", 32);
  fu::CamUnit cam(sys.simulator(), "cam", 16);
  sys.attach(isa::fc::kUserBase + 3, prng);
  sys.attach(isa::fc::kUserBase + 4, cam);
  Coprocessor copro(sys);

  auto unit_op = [&](isa::FunctionCode f, isa::VarietyCode v, isa::RegNum src1,
                     isa::RegNum src2, isa::RegNum dst) {
    isa::Instruction inst;
    inst.function = f;
    inst.variety = v;
    inst.src1 = src1;
    inst.src2 = src2;
    inst.dst1 = dst;
    return inst;
  };

  // Seed the PRNG, draw a value into r2, store it in the CAM under key 7,
  // and look it up again.
  isa::Program p;
  p.emit_put(1, 42);  // seed / key material
  p.emit(unit_op(isa::fc::kUserBase + 3, fu::PrngUnit::kSeed, 1, 0, 2));
  p.emit(unit_op(isa::fc::kUserBase + 3, fu::PrngUnit::kNext, 0, 0, 2));
  p.emit_put(3, 7);  // CAM key
  p.emit(unit_op(isa::fc::kUserBase + 4, fu::CamUnit::kInsert, 3, 2, 4));
  p.emit(unit_op(isa::fc::kUserBase + 4, fu::CamUnit::kLookup, 3, 0, 5));
  isa::Instruction get2, get5;
  get2.function = get5.function = isa::fc::kRtm;
  get2.variety = get5.variety =
      static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get2.src1 = 2;
  get5.src1 = 5;
  p.emit(get2);
  p.emit(get5);
  const auto responses = copro.call(p);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].payload, 0u);                 // the drawn value
  EXPECT_EQ(responses[1].payload, responses[0].payload);  // CAM returned it
}

}  // namespace
}  // namespace fpgafu::host

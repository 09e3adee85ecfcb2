#include <gtest/gtest.h>

#include "rtm/fu_table.hpp"
#include "rtm/lock_manager.hpp"
#include "rtm/register_file.hpp"
#include "support/error_text.hpp"

namespace fpgafu::rtm {
namespace {

TEST(RegisterFile, MasksToConfiguredWidth) {
  RegisterFile rf(8, 32);
  rf.write(3, 0x1122334455667788ULL);
  EXPECT_EQ(rf.read(3), 0x55667788u);
  RegisterFile rf64(8, 64);
  rf64.write(3, 0x1122334455667788ULL);
  EXPECT_EQ(rf64.read(3), 0x1122334455667788ULL);
}

TEST(RegisterFile, RejectsBadGeometry) {
  EXPECT_THROW(RegisterFile(8, 16), SimError);   // not a multiple of 32
  EXPECT_THROW(RegisterFile(8, 96), SimError);   // beyond model support
  EXPECT_THROW(RegisterFile(1, 32), SimError);   // too few registers
  EXPECT_THROW(RegisterFile(300, 32), SimError); // 8-bit register numbers
}

TEST(RegisterFile, BoundsChecked) {
  RegisterFile rf(4, 32);
  EXPECT_TRUE(rf.valid(3));
  EXPECT_FALSE(rf.valid(4));
  EXPECT_THROW(rf.read(4), SimError);
  EXPECT_THROW(rf.write(4, 0), SimError);
}

TEST(FlagRegisterFile, StoresFlagVectors) {
  FlagRegisterFile ff(4);
  ff.write(2, 0x1f);
  EXPECT_EQ(ff.read(2), 0x1f);
  ff.clear();
  EXPECT_EQ(ff.read(2), 0);
}

TEST(LockManager, TracksOwnersAndCount) {
  LockManager lm(8, 4);
  EXPECT_EQ(lm.held(), 0u);
  lm.lock_data(3, 1);
  lm.lock_flag(2, 1);
  EXPECT_TRUE(lm.data_locked(3));
  EXPECT_TRUE(lm.flag_locked(2));
  EXPECT_FALSE(lm.data_locked(2));
  EXPECT_EQ(lm.data_owner(3), 1u);
  EXPECT_EQ(lm.held(), 2u);
  lm.unlock_data(3);
  lm.unlock_flag(2);
  EXPECT_EQ(lm.held(), 0u);
}

TEST(LockManager, DoubleLockAndSpuriousUnlockThrow) {
  LockManager lm(8, 4);
  lm.lock_data(1, 0);
  EXPECT_THROW(lm.lock_data(1, 2), SimError);
  EXPECT_THROW(lm.unlock_data(5), SimError);
  EXPECT_THROW(lm.unlock_flag(0), SimError);
}

TEST(FunctionalUnitTable, AttachAndLookup) {
  sim::Simulator sim;
  class Dummy : public fu::FunctionalUnit {
   public:
    using FunctionalUnit::FunctionalUnit;
  };
  Dummy a(sim, "a"), b(sim, "b");
  FunctionalUnitTable t;
  EXPECT_EQ(t.attach(0x10, a), 0u);
  EXPECT_EQ(t.attach(0x11, b), 1u);
  EXPECT_EQ(t.find(0x10), &a);
  EXPECT_EQ(t.find(0x12), nullptr);
  EXPECT_EQ(t.index_of(0x11), 1u);
  EXPECT_EQ(&t.unit(0), &a);
  EXPECT_THROW(t.attach(0x10, b), SimError);  // duplicate code
  EXPECT_THROW(t.attach(isa::fc::kRtm, b), SimError);
  EXPECT_THROW(t.index_of(0x55), SimError);
  t.detach(0x10);
  EXPECT_EQ(testing::sim_error_text([&] { t.unit(0); }),
            "detached unit slot");
}

}  // namespace
}  // namespace fpgafu::rtm

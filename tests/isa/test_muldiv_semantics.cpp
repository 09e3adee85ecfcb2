#include "isa/muldiv.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fpgafu::isa::muldiv {
namespace {

bool error_flag(const Result& r) {
  return bits::bit(r.flags, flag::kError);
}

TEST(MulDiv, WideProductMatchesNative32) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.next());
    const std::uint32_t b = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t full = static_cast<std::uint64_t>(a) * b;
    const WideProduct p = umul_wide(a, b, 32);
    ASSERT_EQ(p.lo, full & 0xffffffffu);
    ASSERT_EQ(p.hi, full >> 32);
  }
}

TEST(MulDiv, WideProduct64KnownValues) {
  // Cross-checked values for the limb decomposition at full width.
  const WideProduct p1 = umul_wide(~Word{0}, ~Word{0}, 64);
  EXPECT_EQ(p1.lo, 1u);                      // (2^64-1)^2 mod 2^64
  EXPECT_EQ(p1.hi, ~Word{0} - 1);            // high word = 2^64 - 2
  const WideProduct p2 = umul_wide(0x123456789abcdef0ULL, 0x10, 64);
  EXPECT_EQ(p2.lo, 0x23456789abcdef00ULL);
  EXPECT_EQ(p2.hi, 0x1u);
  const WideProduct p3 = umul_wide(1ULL << 63, 2, 64);
  EXPECT_EQ(p3.lo, 0u);
  EXPECT_EQ(p3.hi, 1u);
}

class MulDivOps : public ::testing::TestWithParam<unsigned> {};

TEST_P(MulDivOps, MatchesNativeSemantics) {
  const unsigned width = GetParam();
  const Word m = bits::mask(width);
  Xoshiro256 rng(width * 7);
  for (int i = 0; i < 3000; ++i) {
    const Word a = rng.next() & m;
    const Word b = rng.next() & m;
    const std::int64_t sa = bits::sign_extend(a, width);
    const std::int64_t sb = bits::sign_extend(b, width);

    // MUL low word: identical for signed and unsigned.
    ASSERT_EQ(evaluate(variety(Op::kMul), a, b, width).value,
              (a * b) & m);
    // MULH against the tested umul_wide.
    ASSERT_EQ(evaluate(variety(Op::kMulh), a, b, width).value,
              umul_wide(a, b, width).hi);
    if (b != 0) {
      ASSERT_EQ(evaluate(variety(Op::kDiv), a, b, width).value, a / b);
      ASSERT_EQ(evaluate(variety(Op::kRem), a, b, width).value, a % b);
      if (!(sa == bits::sign_extend(Word{1} << (width - 1), width) &&
            sb == -1)) {
        ASSERT_EQ(evaluate(variety(Op::kSdiv), a, b, width).value,
                  static_cast<Word>(sa / sb) & m)
            << "a=" << sa << " b=" << sb;
        ASSERT_EQ(evaluate(variety(Op::kSrem), a, b, width).value,
                  static_cast<Word>(sa % sb) & m);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MulDivOps, ::testing::Values(8u, 16u, 32u),
                         [](const ::testing::TestParamInfo<unsigned>& pinfo) {
                           // Appended rather than `"w" + to_string(...)`:
                           // GCC 12 at -O3 reports a false -Wrestrict on
                           // the operator+ form.
                           std::string name = "w";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(MulDiv, Width64SignedHighProduct) {
  // SMULH spot checks at full width (no native 128-bit oracle needed).
  EXPECT_EQ(evaluate(variety(Op::kSmulh), static_cast<Word>(-1),
                     static_cast<Word>(-1), 64)
                .value,
            0u);  // (-1) * (-1) = 1 -> high word 0
  EXPECT_EQ(evaluate(variety(Op::kSmulh), static_cast<Word>(-2), 3, 64).value,
            ~Word{0});  // -6 -> high word all ones
  EXPECT_EQ(evaluate(variety(Op::kSmulh), Word{1} << 62, 4, 64).value,
            1u);  // 2^64 -> high word 1
}

TEST(MulDiv, DivisionByZeroSetsErrorFlag) {
  // The thesis' flagship error case: "e.g. a division by zero.  If this
  // flag is set, the contents of the destination registers (if any) are
  // undefined by specification."
  for (const Op op : {Op::kDiv, Op::kRem, Op::kSdiv, Op::kSrem}) {
    const Result r = evaluate(variety(op), 123, 0, 32);
    EXPECT_TRUE(error_flag(r)) << to_string(op);
  }
  // Non-zero divisor: no error.
  EXPECT_FALSE(error_flag(evaluate(variety(Op::kDiv), 123, 7, 32)));
}

TEST(MulDiv, SignedOverflowMinDividedByMinusOne) {
  const Word min32 = Word{1} << 31;
  const Word minus1 = bits::mask(32);
  EXPECT_TRUE(error_flag(evaluate(variety(Op::kSdiv), min32, minus1, 32)));
  EXPECT_TRUE(error_flag(evaluate(variety(Op::kSrem), min32, minus1, 32)));
  // MIN / 1 is fine.
  EXPECT_FALSE(error_flag(evaluate(variety(Op::kSdiv), min32, 1, 32)));
}

TEST(MulDiv, RemainderTakesDividendSign) {
  // -7 srem 3 == -1 (C++ truncation semantics).
  const Word a = static_cast<Word>(-7) & bits::mask(32);
  const Result r = evaluate(variety(Op::kSrem), a, 3, 32);
  EXPECT_EQ(bits::sign_extend(r.value, 32), -1);
  // 7 srem -3 == 1.
  const Word b = static_cast<Word>(-3) & bits::mask(32);
  const Result r2 = evaluate(variety(Op::kSrem), 7, b, 32);
  EXPECT_EQ(bits::sign_extend(r2.value, 32), 1);
}

TEST(MulDiv, FlagsZeroAndNegative) {
  const Result z = evaluate(variety(Op::kMul), 0, 12345, 32);
  EXPECT_TRUE(bits::bit(z.flags, flag::kZero));
  const Word neg = static_cast<Word>(-4) & bits::mask(32);
  const Result n = evaluate(variety(Op::kSdiv), neg, 2, 32);
  EXPECT_TRUE(bits::bit(n.flags, flag::kNegative));
}

}  // namespace
}  // namespace fpgafu::isa::muldiv

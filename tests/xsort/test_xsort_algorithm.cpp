#include "xsort/algorithm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.hpp"
#include "xsort/baseline.hpp"
#include "xsort/hw_engine.hpp"
#include "xsort/soft_engine.hpp"

namespace fpgafu::xsort {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed,
                                         std::uint64_t range) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) {
    x = rng.below(range);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Software engine first (fast), then the cycle-accurate hardware engine.

TEST(XsortAlgorithmSoft, SortsDistinctValues) {
  SoftXsortEngine eng({.cells = 32});
  XsortAlgorithm algo(eng);
  std::vector<std::uint64_t> vals;
  for (std::uint64_t i = 0; i < 32; ++i) {
    vals.push_back((31 - i) * 7 + 1);
  }
  const auto sorted = algo.sort(vals);
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(XsortAlgorithmSoft, SortsWithHeavyDuplicates) {
  SoftXsortEngine eng({.cells = 64});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(64, 99, /*range=*/4);  // many duplicates
  const auto sorted = algo.sort(vals);
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(XsortAlgorithmSoft, SortsAllEqual) {
  SoftXsortEngine eng({.cells = 16});
  XsortAlgorithm algo(eng);
  const std::vector<std::uint64_t> vals(16, 5);
  EXPECT_EQ(algo.sort(vals), vals);
  // All-equal resolves in a single refinement round.
  EXPECT_EQ(algo.stats().rounds, 1u);
}

TEST(XsortAlgorithmSoft, SortsAlreadySortedAndReversed) {
  for (const bool reversed : {false, true}) {
    SoftXsortEngine eng({.cells = 32});
    XsortAlgorithm algo(eng);
    std::vector<std::uint64_t> vals;
    for (std::uint64_t i = 0; i < 32; ++i) {
      vals.push_back(reversed ? 31 - i : i);
    }
    auto expect = vals;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(algo.sort(vals), expect);
  }
}

TEST(XsortAlgorithmSoft, SingleCellArray) {
  SoftXsortEngine eng({.cells = 1});
  XsortAlgorithm algo(eng);
  EXPECT_EQ(algo.sort({42}), (std::vector<std::uint64_t>{42}));
}

class XsortSortSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(XsortSortSweep, MatchesStdSort) {
  const auto [n, seed] = GetParam();
  SoftXsortEngine eng({.cells = n, .interval_bits = 16});
  XsortAlgorithm algo(eng);
  // Mix ranges: sparse and duplicate-heavy.
  const auto vals = random_values(n, seed, seed % 2 == 0 ? 1u << 30 : n / 2 + 1);
  const auto sorted = algo.sort(vals);
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect) << "n=" << n << " seed=" << seed;
  // Rounds are bounded by the number of partitions, which is at most n.
  EXPECT_LE(algo.stats().rounds, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, XsortSortSweep,
    ::testing::Combine(::testing::Values(2, 3, 8, 17, 64, 129, 256),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::uint64_t>>&
           pinfo) {
      // Appended rather than `"n" + to_string(...)`: GCC 12 at -O3 reports
      // a false -Wrestrict on the operator+ form.
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_s";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(XsortAlgorithmSoft, SortPaddedHandlesPartialArrays) {
  SoftXsortEngine eng({.cells = 32});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(20, 7, 1000);
  const auto sorted = algo.sort_padded(vals, 32);
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(XsortAlgorithmSoft, SelectMatchesNthElement) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SoftXsortEngine eng({.cells = 128});
    XsortAlgorithm algo(eng);
    const auto vals = random_values(128, seed, 500);  // duplicates likely
    for (const std::uint64_t k : {0u, 1u, 63u, 126u, 127u}) {
      SoftXsortEngine fresh({.cells = 128});
      XsortAlgorithm a2(fresh);
      a2.load(vals);
      const auto got = a2.select(k);
      EXPECT_EQ(got, cpu_select(vals, k)) << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(XsortAlgorithmSoft, SelectionRoundsAreLogarithmicOnAverage) {
  SoftXsortEngine eng({.cells = 1024, .interval_bits = 16});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(1024, 3, 1u << 30);
  algo.load(vals);
  algo.reset_stats();
  algo.select(512);
  // Expected ~2 log2(n) ~= 20 rounds; allow generous slack but far below n.
  EXPECT_LE(algo.stats().rounds, 64u);
}

TEST(XsortAlgorithmSoft, PerOpCostScalesLinearlyWithN) {
  // The Θ(n)-per-op software cost model: one primitive on an 8x bigger
  // array costs ~8x more modelled cycles (the hardware engine, by contrast,
  // is flat — see XsortUnit.OperationCyclesAreFixedRegardlessOfArraySize).
  auto cost_of_one_op = [](std::size_t n) {
    SoftXsortEngine eng({.cells = n, .interval_bits = 16});
    eng.reset_cost();
    eng.op(XsortOp::kCount);
    return static_cast<double>(eng.cost_cycles());
  };
  const double small = cost_of_one_op(64);
  const double large = cost_of_one_op(512);
  EXPECT_NEAR(large / small, 8.0, 1.0);
}

TEST(XsortAlgorithmSoft, PartialSortReturnsSmallestKInOrder) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    SoftXsortEngine eng({.cells = 256, .interval_bits = 16});
    XsortAlgorithm algo(eng);
    const auto vals = random_values(256, seed, 300);  // with duplicates
    algo.load(vals);
    auto expect = vals;
    std::sort(expect.begin(), expect.end());
    for (const std::uint64_t k : {0u, 1u, 10u, 255u, 256u}) {
      SoftXsortEngine fresh({.cells = 256, .interval_bits = 16});
      XsortAlgorithm a2(fresh);
      a2.load(vals);
      const auto got = a2.partial_sort(k);
      ASSERT_EQ(got.size(), k);
      for (std::uint64_t i = 0; i < k; ++i) {
        ASSERT_EQ(got[i], expect[i]) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(XsortAlgorithmSoft, PartialSortUsesFarFewerRoundsThanFullSort) {
  const std::size_t n = 1024;
  const auto vals = random_values(n, 77, 1u << 30);
  SoftXsortEngine full_eng({.cells = n, .interval_bits = 16});
  XsortAlgorithm full(full_eng);
  full.sort(vals);
  SoftXsortEngine part_eng({.cells = n, .interval_bits = 16});
  XsortAlgorithm part(part_eng);
  part.load(vals);
  part.reset_stats();
  part.partial_sort(8);
  EXPECT_LT(part.stats().rounds, full.stats().rounds / 3);
}

TEST(XsortAlgorithmSoft, RankOfMatchesLinearScan) {
  SoftXsortEngine eng({.cells = 128});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(128, 41, 200);
  algo.load(vals);
  for (const std::uint64_t probe : {0u, 50u, 100u, 199u, 500u}) {
    std::uint64_t expect = 0;
    for (const auto v : vals) {
      expect += v < probe ? 1 : 0;
    }
    EXPECT_EQ(algo.rank_of(probe), expect) << "probe " << probe;
  }
}

TEST(XsortAlgorithmSoft, MinMaxViaSelection) {
  SoftXsortEngine eng({.cells = 64});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(64, 51, 10000);
  algo.load(vals);
  EXPECT_EQ(algo.min(), *std::min_element(vals.begin(), vals.end()));
  SoftXsortEngine eng2({.cells = 64});
  XsortAlgorithm algo2(eng2);
  algo2.load(vals);
  EXPECT_EQ(algo2.max(), *std::max_element(vals.begin(), vals.end()));
}

// ---------------------------------------------------------------------------
// Hardware engine: identical algorithm, cycle-accurate unit.

TEST(XsortAlgorithmHw, SortsAgainstStdSort) {
  for (const std::size_t n : {4u, 16u, 33u}) {
    HwXsortEngine eng({.cells = n, .interval_bits = 16});
    XsortAlgorithm algo(eng);
    const auto vals = random_values(n, n * 31 + 7, 100);
    const auto sorted = algo.sort(vals);
    auto expect = vals;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorted, expect) << "n=" << n;
  }
}

TEST(XsortAlgorithmHw, SelectAgainstNthElement) {
  HwXsortEngine eng({.cells = 32});
  XsortAlgorithm algo(eng);
  const auto vals = random_values(32, 55, 64);
  algo.load(vals);
  EXPECT_EQ(algo.select(10), cpu_select(vals, 10));
}

TEST(XsortAlgorithmHw, AgreesWithSoftEngineOpForOp) {
  // Differential: the cycle-accurate unit and the software emulation return
  // identical results for an arbitrary op sequence.
  HwXsortEngine hw({.cells = 16});
  SoftXsortEngine soft({.cells = 16});
  Xoshiro256 rng(21);
  auto both = [&](XsortOp op, std::uint64_t operand) {
    const auto a = hw.op(op, operand);
    const auto b = soft.op(op, operand);
    ASSERT_EQ(a, b) << to_string(op) << " operand=" << operand;
  };
  both(XsortOp::kReset, 15);
  for (int i = 0; i < 16; ++i) {
    both(XsortOp::kLoad, rng.below(40));
  }
  for (int i = 0; i < 300; ++i) {
    const XsortOp ops[] = {
        XsortOp::kSelectAll,   XsortOp::kSelectImprecise, XsortOp::kMatchLt,
        XsortOp::kMatchEq,     XsortOp::kMatchGt,         XsortOp::kMatchLower,
        XsortOp::kMatchUpper,  XsortOp::kMatchLowerI,     XsortOp::kMatchUpperI,
        XsortOp::kSetLower,    XsortOp::kSetUpper,        XsortOp::kSetBounds,
        XsortOp::kSave,        XsortOp::kRestore,         XsortOp::kCount,
        XsortOp::kCountImprecise, XsortOp::kReadFirst,    XsortOp::kPivotData,
        XsortOp::kPivotLower,  XsortOp::kPivotUpper,      XsortOp::kReadRank,
        XsortOp::kLoadSelected, XsortOp::kRankSelected};
    const XsortOp op = ops[rng.below(std::size(ops))];
    both(op, rng.below(16));
  }
}

// ---------------------------------------------------------------------------
// Baselines sanity.

TEST(Baselines, CountedQuicksortSorts) {
  BaselineStats stats;
  const auto vals = random_values(500, 3, 100);
  const auto sorted = counted_quicksort(vals, stats);
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
  EXPECT_GT(stats.comparisons, 500u);
}

TEST(Baselines, CountedQuickselectMatches) {
  const auto vals = random_values(300, 9, 1000);
  for (const std::uint64_t k : {0u, 150u, 299u}) {
    BaselineStats stats;
    EXPECT_EQ(counted_quickselect(vals, k, stats), cpu_select(vals, k));
  }
}

TEST(Baselines, QuicksortComparisonsGrowLoglinearly) {
  BaselineStats s1, s2;
  counted_quicksort(random_values(1000, 5, 1u << 30), s1);
  counted_quicksort(random_values(8000, 5, 1u << 30), s2);
  const double ratio = static_cast<double>(s2.comparisons) /
                       static_cast<double>(s1.comparisons);
  // n log n growth for 8x n: ~8 * log(8000)/log(1000) ~= 10.4.
  EXPECT_GT(ratio, 7.0);
  EXPECT_LT(ratio, 16.0);
}

}  // namespace
}  // namespace fpgafu::xsort

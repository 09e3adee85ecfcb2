#include "host/expr.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "host/coprocessor.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

/// "v<i>".  Appended rather than `"v" + to_string(i)`: GCC 12 at -O3
/// reports a false -Wrestrict on the operator+ form.
std::string input_name(int i) {
  std::string name = "v";
  name += std::to_string(i);
  return name;
}

struct ExprRig {
  top::System sys;
  Coprocessor copro;
  ExprCompiler compiler;

  ExprRig() : sys({}), copro(sys), compiler(sys.rtm().config()) {}

  isa::Word eval(const Expr& e,
                 const std::map<std::string, isa::Word>& inputs = {}) {
    return compiler.compile(e).run(copro, inputs);
  }
};

TEST(ExprCompiler, LeavesAndSimpleOps) {
  ExprRig rig;
  EXPECT_EQ(rig.eval(Expr::constant(42)), 42u);
  const Expr x = Expr::input("x");
  EXPECT_EQ(rig.eval(x + Expr::constant(5), {{"x", 37}}), 42u);
  EXPECT_EQ(rig.eval(x - Expr::constant(5), {{"x", 47}}), 42u);
  EXPECT_EQ(rig.eval(x * Expr::constant(6), {{"x", 7}}), 42u);
  EXPECT_EQ(rig.eval((x << Expr::constant(4)) | Expr::constant(0xf),
                     {{"x", 0xa}}),
            0xafu);
  EXPECT_EQ(rig.eval(x.udiv(Expr::constant(5)), {{"x", 42}}), 8u);
  EXPECT_EQ(rig.eval(x.urem(Expr::constant(5)), {{"x", 42}}), 2u);
}

TEST(ExprCompiler, SharedSubexpressionComputedOnce) {
  ExprRig rig;
  const Expr x = Expr::input("x"), y = Expr::input("y");
  const Expr t = (x + y) * (x + y);  // structural CSE: one ADD, one MUL
  const CompiledExpr c = rig.compiler.compile(t);
  EXPECT_EQ(c.operation_count(), 2u);
  EXPECT_EQ(c.run(rig.copro, {{"x", 3}, {"y", 4}}), 49u);
}

TEST(ExprCompiler, RegisterReuseBoundsPressure) {
  // A long left-leaning sum: x + 1 + 2 + ... + 32.  With liveness-based
  // reuse this needs O(1) registers, far fewer than one per node.
  ExprRig rig;
  Expr sum = Expr::input("x");
  isa::Word expect = 10;
  for (isa::Word i = 1; i <= 32; ++i) {
    sum = sum + Expr::constant(i);
    expect += i;
  }
  const CompiledExpr c = rig.compiler.compile(sum);
  EXPECT_LE(c.registers_used(), 6u);
  EXPECT_EQ(c.run(rig.copro, {{"x", 10}}), expect);
}

TEST(ExprCompiler, BalancedTreePressureIsDepthPlusOne) {
  // Postorder scheduling keeps only one value per tree level live: a
  // 64-leaf balanced tree of distinct inputs needs just depth+1 = 7
  // registers.
  rtm::RtmConfig cfg;
  cfg.data_regs = 32;
  ExprCompiler compiler(cfg);
  std::vector<Expr> layer;
  for (int i = 0; i < 64; ++i) {
    layer.push_back(Expr::input(input_name(i)));
  }
  while (layer.size() > 1) {
    std::vector<Expr> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(layer[i] + layer[i + 1]);
    }
    layer = std::move(next);
  }
  // depth+1 live values, plus the destination is allocated before its
  // operands die (conservative): depth+2 = 8.
  EXPECT_LE(compiler.compile(layer[0]).registers_used(), 8u);
}

TEST(ExprCompiler, RegisterExhaustionThrows) {
  // With only 4 data registers (3 allocatable), even a depth-3 tree of
  // distinct inputs cannot fit, and the compiler must say so rather than
  // emit a corrupt program.
  rtm::RtmConfig cfg;
  cfg.data_regs = 4;
  ExprCompiler compiler(cfg);
  std::vector<Expr> layer;
  for (int i = 0; i < 8; ++i) {
    layer.push_back(Expr::input(input_name(i)));
  }
  while (layer.size() > 1) {
    std::vector<Expr> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(layer[i] + layer[i + 1]);
    }
    layer = std::move(next);
  }
  EXPECT_THROW(compiler.compile(layer[0]), SimError);
}

TEST(ExprCompiler, UnboundInputRejected) {
  ExprRig rig;
  const CompiledExpr c = rig.compiler.compile(Expr::input("missing") +
                                              Expr::constant(1));
  EXPECT_THROW(c.program({}), SimError);
}

TEST(ExprCompiler, FloatingPointExpression) {
  ExprRig rig;
  auto f2u = [](float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return isa::Word{u};
  };
  // (a + b) * (a - b) for a=3.0, b=1.5 -> 4.5 * 1.5 = 6.75
  const Expr a = Expr::input("a"), b = Expr::input("b");
  const Expr e = Expr::fmul(Expr::fadd(a, b), Expr::fsub(a, b));
  const isa::Word raw =
      rig.eval(e, {{"a", f2u(3.0f)}, {"b", f2u(1.5f)}});
  float result;
  const auto raw32 = static_cast<std::uint32_t>(raw);
  std::memcpy(&result, &raw32, 4);
  EXPECT_EQ(result, 6.75f);
}

TEST(ExprCompiler, RandomExpressionsMatchInterpreter) {
  // Property: random integer expression DAGs evaluate identically on the
  // coprocessor and in a direct host-side interpretation.
  Xoshiro256 rng(808);
  for (int trial = 0; trial < 15; ++trial) {
    ExprRig rig;
    const isa::Word xv = rng.below(1000) + 1;
    const isa::Word yv = rng.below(1000) + 1;
    const isa::Word zv = rng.below(1000) + 1;

    // Parallel build: expression + expected value (32-bit semantics).
    struct Val {
      Expr e;
      std::uint64_t v;
    };
    const std::uint64_t mask = 0xffffffffu;
    std::vector<Val> pool = {{Expr::input("x"), xv},
                             {Expr::input("y"), yv},
                             {Expr::input("z"), zv},
                             {Expr::constant(7), 7}};
    for (int step = 0; step < 12; ++step) {
      const Val& a = pool[rng.below(pool.size())];
      const Val& b = pool[rng.below(pool.size())];
      switch (rng.below(6)) {
        case 0: pool.push_back({a.e + b.e, (a.v + b.v) & mask}); break;
        case 1: pool.push_back({a.e - b.e, (a.v - b.v) & mask}); break;
        case 2: pool.push_back({a.e * b.e, (a.v * b.v) & mask}); break;
        case 3: pool.push_back({a.e & b.e, a.v & b.v}); break;
        case 4: pool.push_back({a.e ^ b.e, a.v ^ b.v}); break;
        default:
          pool.push_back(
              {a.e.udiv(b.e), b.v == 0 ? mask : (a.v / b.v)});
          break;
      }
    }
    const Val& root = pool.back();
    const isa::Word got =
        rig.eval(root.e, {{"x", xv}, {"y", yv}, {"z", zv}});
    ASSERT_EQ(got, root.v) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fpgafu::host

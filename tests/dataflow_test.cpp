/**
 * @file
 * Directed tests for the abstract-interpretation dataflow engine
 * (src/isa/analysis/dataflow.hpp).
 *
 * The load-bearing cases:
 *  - the two shipped G500-CSR watchdog-loop kernels, rebuilt verbatim:
 *    widening must terminate the fixpoint and narrowing must recover
 *    the loop-bound intervals the kernels actually maintain;
 *  - the strict-improvement pin: the clamp-arm div in
 *    on_vertex_prefetch may trap under the instruction-local facts of
 *    the old analysis but is proven trap-free by the value analysis,
 *    and analyzeKernel exports that proof;
 *  - interval soundness exactly at the i64 overflow boundaries;
 *  - known-bits through the and[i] + shli + add hash-bucket quad.
 */

#include <gtest/gtest.h>

#include <limits>

#include "isa/analysis/dataflow.hpp"
#include "isa/analysis/verifier.hpp"
#include "isa/builder.hpp"

namespace epf
{
namespace
{

using analysis::AbsValue;
using analysis::DataflowResult;
using analysis::KernelContext;
using analysis::RegState;

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

/** The G500-CSR on_edges_prefetch tag kernel, verbatim
 *  (src/workloads/g500_csr.cpp; g_par is global 3 there). */
Kernel
buildEdgesKernel()
{
    KernelBuilder b("on_edges_prefetch");
    KernelBuilder::Label loop = b.newLabel();
    b.li(1, 0)
        .gread(2, 3)
        .li(3, kLineBytes)
        .bind(loop)
        .ldLine(4, 1, 0)
        .shli(4, 4, 3)
        .add(4, 4, 2)
        .prefetch(4)
        .addi(1, 1, 8)
        .blt(1, 3, loop)
        .halt();
    return b.build();
}

/** The G500-CSR on_vertex_prefetch kernel, verbatim (g_dest is global
 *  2 there; the tag value does not matter to the analysis). */
Kernel
buildVertexKernel()
{
    constexpr unsigned kMaxEdgeLines = 16;
    KernelBuilder b("on_vertex_prefetch");
    KernelBuilder::Label clamp_lo = b.newLabel();
    KernelBuilder::Label clamp_hi = b.newLabel();
    KernelBuilder::Label loop = b.newLabel();
    b.vaddr(1)
        .ldLine(2, 1, 0)
        .ldLine(3, 1, 8)
        .sub(4, 3, 2)
        .li(5, 1)
        .bge(4, 5, clamp_lo)
        .div(4, 5, 5) // pc 6: the proven-safe clamp arm
        .bind(clamp_lo)
        .li(5, kMaxEdgeLines * 8)
        .blt(4, 5, clamp_hi)
        .mov(4, 5)
        .bind(clamp_hi)
        .gread(6, 2)
        .shli(2, 2, 3)
        .add(6, 6, 2)
        .shli(4, 4, 3)
        .add(4, 6, 4)
        .bind(loop)
        .prefetchTag(6, 0)
        .addi(6, 6, kLineBytes)
        .blt(6, 4, loop)
        .halt();
    return b.build();
}

TEST(DataflowTest, EdgesWatchdogLoopConvergesWithBoundedCounter)
{
    const Kernel k = buildEdgesKernel();
    const DataflowResult df = analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);

    // Loop head is pc 3 (the ldLine).  The counter r1 steps 0, 8, ...,
    // 56 — widening must not leave it at top, and narrowing must pull
    // the upper bound back under the loop limit (r3 == 64).
    const std::size_t loopHead = 3;
    ASSERT_LT(loopHead, df.in.size());
    const RegState &s = df.in[loopHead];
    ASSERT_TRUE(s.feasible);
    EXPECT_GE(s.reg[1].iv.lo, 0);
    EXPECT_LE(s.reg[1].iv.hi, 63);
    EXPECT_TRUE(s.reg[1].contains(0));
    EXPECT_TRUE(s.reg[1].contains(56));
    EXPECT_TRUE(s.reg[3].iv.isConst());
    EXPECT_EQ(s.reg[3].iv.lo, kLineBytes);

    // The counter never reaches 8-misaligned values; known-bits sees
    // the +8 stride keeps the low 3 bits zero.
    EXPECT_GE(s.reg[1].kb.trailingZeros(), 3u);
}

TEST(DataflowTest, VertexWatchdogLoopConverges)
{
    const Kernel k = buildVertexKernel();
    const DataflowResult df = analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    // Every pc on the halt path is feasible (the kernel can run to
    // completion), including the loop body.
    ASSERT_TRUE(df.in.back().feasible);
}

TEST(DataflowTest, ClampArmDivProvenTrapFreeWhereOldFactsCannot)
{
    const Kernel k = buildVertexKernel();
    const std::size_t divPc = 6;
    ASSERT_EQ(k.code[divPc].op, Opcode::kDiv);

    // The instruction-local facts of the pre-dataflow analysis: a
    // register-divisor div may always trap.
    const KernelContext ctx;
    ASSERT_TRUE(analysis::mayTrap(k.code[divPc], ctx));

    // The value analysis proves r5 == 1 at pc 6 (li(5, 1) dominates),
    // so the div cannot trap.
    const DataflowResult df = analysis::analyzeDataflow(k, ctx);
    ASSERT_TRUE(df.converged);
    ASSERT_TRUE(df.in[divPc].feasible);
    EXPECT_TRUE(df.in[divPc].reg[5].iv.isConst());
    EXPECT_EQ(df.in[divPc].reg[5].iv.lo, 1);
    EXPECT_FALSE(df.mayTrapPc[divPc]);
    EXPECT_TRUE(df.provenTrapFree(divPc));

    // analyzeKernel exports the proof in its per-pc bitmap.
    const analysis::KernelAnalysis ka = analysis::analyzeKernel(k, ctx);
    ASSERT_EQ(ka.trapFreePc.size(), k.code.size());
    EXPECT_EQ(ka.trapFreePc[divPc], 1);
    // The ldLine pcs, by contrast, may trap on line-less events.
    EXPECT_EQ(ka.trapFreePc[1], 0);
}

TEST(DataflowTest, AdditionOverflowAtI64BoundaryStaysSound)
{
    // INT64_MAX + 1 wraps to INT64_MIN; the abstract state must still
    // contain the wrapped value (and the +0 identity stays exact).
    KernelBuilder b("ovf");
    b.li(1, kI64Max).addi(2, 1, 1).addi(3, 1, 0).halt();
    const Kernel k = b.build();
    const DataflowResult df =
        analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    const RegState &atHalt = df.in.back();
    ASSERT_TRUE(atHalt.feasible);
    EXPECT_TRUE(
        atHalt.reg[2].contains(static_cast<std::uint64_t>(kI64Min)));
    ASSERT_TRUE(atHalt.reg[3].iv.isConst());
    EXPECT_EQ(atHalt.reg[3].iv.lo, kI64Max);
}

TEST(DataflowTest, SubtractionUnderflowAtI64BoundaryStaysSound)
{
    // INT64_MIN - 1 wraps to INT64_MAX.
    KernelBuilder b("udf");
    b.li(1, kI64Min).addi(2, 1, -1).halt();
    const Kernel k = b.build();
    const DataflowResult df =
        analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    const RegState &atHalt = df.in.back();
    ASSERT_TRUE(atHalt.feasible);
    EXPECT_TRUE(
        atHalt.reg[2].contains(static_cast<std::uint64_t>(kI64Max)));
}

TEST(DataflowTest, ConstantsFoldExactlyThroughArithmetic)
{
    KernelBuilder b("fold");
    b.li(1, 40).addi(1, 1, 2).muli(2, 1, 3).divi(3, 2, 7).halt();
    const Kernel k = b.build();
    const DataflowResult df =
        analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    const RegState &atHalt = df.in.back();
    ASSERT_TRUE(atHalt.feasible);
    EXPECT_EQ(atHalt.reg[1].asConst().value_or(-1), 42);
    EXPECT_EQ(atHalt.reg[2].asConst().value_or(-1), 126);
    EXPECT_EQ(atHalt.reg[3].asConst().value_or(-1), 18);
}

TEST(DataflowTest, KnownBitsFlowThroughHashQuad)
{
    // The hash-bucket idiom: mask to the table size, scale to slot
    // bytes, rebase on the (seeded) table base.
    KernelBuilder b("hash");
    b.vaddr(1).andi(2, 1, 1023).shli(2, 2, 3).gread(4, 0).add(3, 2, 4).halt();
    const Kernel k = b.build();

    KernelContext ctx;
    const std::int64_t base = 0x4000'0000;
    ctx.globalValues.push_back({0, static_cast<std::uint64_t>(base)});
    const DataflowResult df = analysis::analyzeDataflow(k, ctx);
    ASSERT_TRUE(df.converged);

    // After andi: r2 in [0, 1023], high 54 bits known zero.
    const RegState &afterAnd = df.in[2];
    ASSERT_TRUE(afterAnd.feasible);
    EXPECT_EQ(afterAnd.reg[2].iv.lo, 0);
    EXPECT_EQ(afterAnd.reg[2].iv.hi, 1023);
    EXPECT_EQ(afterAnd.reg[2].kb.mask & ~0x3FFull, ~0x3FFull);

    // After shli #3: scaled range, low 3 bits known zero.
    const RegState &afterShl = df.in[3];
    ASSERT_TRUE(afterShl.feasible);
    EXPECT_EQ(afterShl.reg[2].iv.lo, 0);
    EXPECT_EQ(afterShl.reg[2].iv.hi, 1023 * 8);
    EXPECT_GE(afterShl.reg[2].kb.trailingZeros(), 3u);

    // After the rebase: bucket addresses span [base, base + 8184] and
    // stay 8-byte aligned (the base itself is aligned).
    const RegState &atHalt = df.in.back();
    ASSERT_TRUE(atHalt.feasible);
    EXPECT_EQ(atHalt.reg[3].iv.lo, base);
    EXPECT_EQ(atHalt.reg[3].iv.hi, base + 1023 * 8);
    EXPECT_GE(atHalt.reg[3].kb.trailingZeros(), 3u);
}

TEST(DataflowTest, UnboundedLoopStillTerminatesViaWidening)
{
    // No exit condition at all: widening must drive the counter to a
    // fixpoint instead of iterating forever.  Top is also the only
    // sound answer — after 2^63 iterations the +1 stride really does
    // wrap past INT64_MAX into negative values.
    KernelBuilder b("runaway");
    KernelBuilder::Label loop = b.newLabel();
    b.li(1, 0).bind(loop).addi(1, 1, 1).jmp(loop);
    const Kernel k = b.build();
    const DataflowResult df =
        analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    const RegState &body = df.in[1];
    ASSERT_TRUE(body.feasible);
    EXPECT_TRUE(body.reg[1].iv.isTop());
}

TEST(DataflowTest, BranchRefinementMakesDeadArmInfeasible)
{
    // beq r1, r1 always takes: the fall-through is dead, and the
    // analysis must say so (branchOutcome and feasibility agree).
    KernelBuilder b("dead");
    KernelBuilder::Label t = b.newLabel();
    b.li(1, 7).beq(1, 1, t).li(2, 1).bind(t).halt();
    const Kernel k = b.build();
    const DataflowResult df =
        analysis::analyzeDataflow(k, KernelContext{});
    ASSERT_TRUE(df.converged);
    EXPECT_EQ(analysis::branchOutcome(k.code[1], df.in[1]),
              analysis::BranchOutcome::kAlwaysTaken);
    EXPECT_FALSE(df.in[2].feasible); // the skipped li
    EXPECT_TRUE(df.in[3].feasible);
}

TEST(DataflowTest, SeededVaddrRangeReachesThePrefetchTarget)
{
    // A demand-filter kernel: the triggering address is bounded by the
    // filter range, so vaddr + 64 is provably inside [lo + 64, hi + 64].
    KernelBuilder b("next");
    b.vaddr(1).addi(1, 1, 64).prefetch(1).halt();
    const Kernel k = b.build();
    KernelContext ctx;
    ctx.vaddrLo = 0x1000;
    ctx.vaddrHi = 0x1FFF;
    const DataflowResult df = analysis::analyzeDataflow(k, ctx);
    ASSERT_TRUE(df.converged);
    const RegState &atPf = df.in[2];
    ASSERT_TRUE(atPf.feasible);
    EXPECT_EQ(atPf.reg[1].iv.lo, 0x1000 + 64);
    EXPECT_EQ(atPf.reg[1].iv.hi, 0x1FFF + 64);
}

} // namespace
} // namespace epf

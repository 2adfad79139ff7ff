/**
 * @file
 * Directed tests for the kernel static analyzer (src/isa/analysis):
 * seeded defects must be detected, clean kernels must prove clean,
 * loops must be classified as watchdog-bounded, and the strict
 * KernelTable gate must reject malformed kernels at registration.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "isa/analysis/verifier.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"
#include "isa/isa.hpp"

namespace epf
{
namespace
{

using analysis::DiagCode;
using analysis::KernelContext;
using analysis::Severity;

/** True when @p diags contains @p code (at @p pc, unless pc is -2). */
bool
hasDiag(const std::vector<analysis::Diag> &diags, DiagCode code, int pc = -2)
{
    for (const analysis::Diag &d : diags)
        if (d.code == code && (pc == -2 || d.pc == pc))
            return true;
    return false;
}

Kernel
rawKernel(std::vector<Instr> code)
{
    return Kernel{"raw", std::move(code)};
}

// ---------------------------------------------------------------------
// Control-flow validity
// ---------------------------------------------------------------------

TEST(AnalysisTest, CleanKernelHasNoDiags)
{
    KernelBuilder b("clean");
    b.vaddr(1).addi(2, 1, 64).prefetch(2).halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_TRUE(ka.diags.empty());
    EXPECT_FALSE(ka.hasErrors());
}

TEST(AnalysisTest, DetectsBadBranchTarget)
{
    // jmp +40 from pc 1 of a 3-instruction kernel: target 42.
    const auto ka = analysis::analyzeKernel(
        rawKernel({Instr{Opcode::kLi, 1, 0, 0, 1},
                   Instr{Opcode::kJmp, 0, 0, 0, 40},
                   Instr{Opcode::kHalt, 0, 0, 0, 0}}));
    EXPECT_TRUE(ka.hasErrors());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kBadBranchTarget, 1));
    // The instruction after the wild jmp never executes.
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUnreachableCode, 2));
}

TEST(AnalysisTest, DetectsFallOffEnd)
{
    const auto ka = analysis::analyzeKernel(
        rawKernel({Instr{Opcode::kVaddr, 1, 0, 0, 0},
                   Instr{Opcode::kPrefetch, 0, 1, 0, 0}}));
    EXPECT_TRUE(ka.hasErrors());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kFallOffEnd, 1));
}

TEST(AnalysisTest, ConditionalBranchAtEndFallsOffOnNotTakenPath)
{
    // beq at the last instruction: the taken target (pc 0) is fine,
    // the not-taken path falls past the end.
    const auto ka = analysis::analyzeKernel(
        rawKernel({Instr{Opcode::kVaddr, 1, 0, 0, 0},
                   Instr{Opcode::kBeq, 0, 1, 1, -2}}));
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kFallOffEnd, 1));
    EXPECT_FALSE(hasDiag(ka.diags, DiagCode::kBadBranchTarget));
}

TEST(AnalysisTest, DetectsEmptyKernel)
{
    const auto ka = analysis::analyzeKernel(rawKernel({}));
    EXPECT_TRUE(ka.hasErrors());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kEmptyKernel));
}

TEST(AnalysisTest, DetectsUnreachableCode)
{
    KernelBuilder b("dead");
    auto end = b.newLabel();
    b.vaddr(1).jmp(end).prefetch(1).bind(end).halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_FALSE(ka.hasErrors()); // dead code is a warning
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUnreachableCode, 2));
    EXPECT_EQ(ka.reachablePc[2], 0);
    EXPECT_EQ(ka.reachablePc[3], 1);
}

// ---------------------------------------------------------------------
// Uninitialized-register reads
// ---------------------------------------------------------------------

TEST(AnalysisTest, DetectsUninitRead)
{
    KernelBuilder b("uninit");
    b.addi(1, 2, 8).prefetch(1).halt(); // r2 never written
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_FALSE(ka.hasErrors()); // registers are zeroed: warning only
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUninitRead, 0));
}

TEST(AnalysisTest, UninitReadOnOnePathOnly)
{
    // r2 is defined on the taken path but not the fall-through one.
    KernelBuilder b("onepath");
    auto join = b.newLabel();
    auto skip = b.newLabel();
    b.vaddr(1)
        .beq(1, 1, skip)
        .li(2, 7)
        .jmp(join)
        .bind(skip)
        .nop()
        .bind(join)
        .prefetch(2) // r2 maybe-uninitialized here
        .halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUninitRead, 5));
}

TEST(AnalysisTest, ObservationOpsCountAsDefs)
{
    KernelBuilder b("obs");
    b.vaddr(1).lineBase(2).gread(3, 0).lookahead(4, 0);
    b.add(5, 1, 2).add(6, 3, 4).prefetch(5).prefetch(6).halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_FALSE(hasDiag(ka.diags, DiagCode::kUninitRead));
}

// ---------------------------------------------------------------------
// Static trap proofs
// ---------------------------------------------------------------------

TEST(AnalysisTest, ContextFreeTrapFactsMatchTheInterpreter)
{
    // The single-instruction facts that terminate a CFG block.
    EXPECT_TRUE(analysis::alwaysTraps(Instr{Opcode::kDivi, 1, 1, 0, 0}));
    EXPECT_FALSE(analysis::alwaysTraps(Instr{Opcode::kDivi, 1, 1, 0, 2}));
    EXPECT_TRUE(analysis::alwaysTraps(Instr{Opcode::kGread, 1, 0, 0, 64}));
    EXPECT_TRUE(analysis::alwaysTraps(Instr{Opcode::kGread, 1, 0, 0, -1}));
    EXPECT_FALSE(analysis::alwaysTraps(Instr{Opcode::kGread, 1, 0, 0, 63}));
    EXPECT_TRUE(
        analysis::alwaysTraps(Instr{Opcode::kLookahead, 1, 0, 0, -2}));
    EXPECT_FALSE(
        analysis::alwaysTraps(Instr{Opcode::kLookahead, 1, 0, 0, 0}));
    // Dynamic traps are NOT context-free facts.
    EXPECT_FALSE(analysis::alwaysTraps(Instr{Opcode::kDiv, 1, 1, 2, 0}));
    EXPECT_FALSE(analysis::alwaysTraps(Instr{Opcode::kLdLine, 1, 1, 0, 0}));
}

TEST(AnalysisTest, DetectsGuaranteedTrap)
{
    KernelBuilder b("trap");
    b.li(1, 4).divi(2, 1, 0).prefetch(2).halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_TRUE(ka.hasErrors());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kGuaranteedTrap, 1));
    // Execution provably stops at the trap; the rest is unreachable.
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUnreachableCode, 2));
}

TEST(AnalysisTest, LdLineTrapsOnNoLineEvents)
{
    KernelBuilder b("ld");
    b.vaddr(1).ldLine(2, 1).prefetch(2).halt();
    const Kernel k = b.build();

    KernelContext demand;
    demand.line = KernelContext::Line::kNever;
    const auto onDemand = analysis::analyzeKernel(k, demand);
    EXPECT_TRUE(hasDiag(onDemand.diags, DiagCode::kGuaranteedTrap, 1));

    KernelContext fill;
    fill.line = KernelContext::Line::kAlways;
    const auto onFill = analysis::analyzeKernel(k, fill);
    EXPECT_FALSE(hasDiag(onFill.diags, DiagCode::kGuaranteedTrap));

    // Unknown trigger kind: may trap, so no proof either way.
    const auto unknown = analysis::analyzeKernel(k);
    EXPECT_FALSE(hasDiag(unknown.diags, DiagCode::kGuaranteedTrap));
}

TEST(AnalysisTest, LookaheadCheckedAgainstFilterCount)
{
    KernelBuilder b("la");
    b.lookahead(1, 3).prefetch(1).halt();
    const Kernel k = b.build();

    KernelContext two;
    two.lookaheadEntries = 2;
    EXPECT_TRUE(hasDiag(analysis::analyzeKernel(k, two).diags,
                        DiagCode::kGuaranteedTrap, 0));

    KernelContext four;
    four.lookaheadEntries = 4;
    const auto ok = analysis::analyzeKernel(k, four);
    EXPECT_FALSE(hasDiag(ok.diags, DiagCode::kGuaranteedTrap));
}

TEST(AnalysisTest, UnreachableTrapIsNotAnError)
{
    KernelBuilder b("deadtrap");
    auto end = b.newLabel();
    b.li(1, 1).jmp(end).divi(2, 1, 0).bind(end).prefetch(1).halt();
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_FALSE(ka.hasErrors());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kUnreachableCode, 2));
}

// ---------------------------------------------------------------------
// Watchdog classification
// ---------------------------------------------------------------------

TEST(AnalysisTest, LoopClassifiedAsWatchdogBounded)
{
    KernelBuilder b("loop");
    auto top = b.newLabel();
    b.li(1, 0).bind(top).addi(1, 1, 1).jmp(top);
    const auto ka = analysis::analyzeKernel(b.build());
    EXPECT_TRUE(hasDiag(ka.diags, DiagCode::kWatchdogLoop));
    EXPECT_FALSE(ka.hasErrors()); // loops are legal, just unbounded

    EventContext ctx;
    const ExecResult res = Interpreter::run(b.build(), ctx, nullptr);
    EXPECT_EQ(res.exit, ExitReason::kStepLimit);
    EXPECT_EQ(res.cycles, kMaxKernelSteps);
}

// ---------------------------------------------------------------------
// Table-wide checks
// ---------------------------------------------------------------------

TEST(AnalysisTest, DetectsUnresolvedCallback)
{
    KernelTable t;
    KernelBuilder b("cb");
    b.vaddr(1).prefetchCb(1, 7).halt(); // id 7 doesn't exist
    t.add(b.build());
    const auto ta = analysis::analyzeTable(t);
    EXPECT_TRUE(ta.hasErrors());
    EXPECT_TRUE(
        hasDiag(ta.kernels[0].diags, DiagCode::kUnresolvedCallback, 1));
}

TEST(AnalysisTest, DetectsCallbackCycle)
{
    KernelTable t;
    KernelBuilder a("a");
    a.vaddr(1).prefetchCb(1, 1).halt();
    KernelBuilder b("b");
    b.vaddr(1).prefetchCb(1, 0).halt();
    t.add(a.build());
    t.add(b.build());
    const auto ta = analysis::analyzeTable(t);
    EXPECT_FALSE(ta.hasErrors()); // a storm lint, not an error
    EXPECT_TRUE(hasDiag(ta.tableDiags, DiagCode::kCallbackCycle));
}

TEST(AnalysisTest, SelfChainWithoutCycleIsClean)
{
    // a -> b -> halt: a DAG, no cycle warning.
    KernelTable t;
    KernelBuilder a("a");
    a.vaddr(1).prefetchCb(1, 1).halt();
    KernelBuilder b("b");
    b.vaddr(1).prefetch(1).halt();
    t.add(a.build());
    t.add(b.build());
    const auto ta = analysis::analyzeTable(t);
    EXPECT_FALSE(ta.hasErrors());
    EXPECT_FALSE(hasDiag(ta.tableDiags, DiagCode::kCallbackCycle));
}

TEST(AnalysisTest, DetectsCodeBudgetOverflow)
{
    KernelTable t;
    for (int k = 0; k < 2; ++k) {
        KernelBuilder b("big" + std::to_string(k));
        for (int i = 0; i < 550; ++i)
            b.nop();
        b.halt();
        t.add(b.build());
    }
    ASSERT_GT(t.totalBytes(), 4096u);
    const auto ta = analysis::analyzeTable(t);
    EXPECT_TRUE(hasDiag(ta.tableDiags, DiagCode::kCodeBudgetExceeded));
}

// ---------------------------------------------------------------------
// Strict registration gate
// ---------------------------------------------------------------------

TEST(AnalysisTest, StrictTableRejectsMalformedKernels)
{
    KernelTable t;
    EXPECT_TRUE(t.strict());
    EXPECT_THROW(
        t.add(rawKernel({Instr{Opcode::kJmp, 0, 0, 0, 40},
                         Instr{Opcode::kHalt, 0, 0, 0, 0}})),
        std::invalid_argument);
    EXPECT_THROW(t.add(rawKernel({})), std::invalid_argument);
    EXPECT_THROW(
        t.add(rawKernel({Instr{Opcode::kDivi, 1, 1, 0, 0},
                         Instr{Opcode::kHalt, 0, 0, 0, 0}})),
        std::invalid_argument);
    EXPECT_EQ(t.size(), 0u);
}

TEST(AnalysisTest, StrictTableAcceptsDynamicTrapsAndLocalCallbacks)
{
    // A kernel that *may* trap (div by a register) and one whose
    // callback id is not yet resolvable (the compiler registers with
    // local ids and patches them afterwards) must both pass: only
    // instruction-local guaranteed traps are rejected at add().
    KernelTable t;
    KernelBuilder dyn("dyn");
    dyn.li(1, 1).vaddr(2).div(1, 1, 2).halt();
    EXPECT_NO_THROW(t.add(dyn.build()));
    // A register divisor that is zero on every execution still only
    // may trap by its own instruction: it installs and traps at run
    // time.
    KernelBuilder zero("zero");
    zero.li(1, 1).li(2, 0).div(1, 1, 2).halt();
    EXPECT_NO_THROW(t.add(zero.build()));
    KernelBuilder cb("cb");
    cb.vaddr(1).prefetchCb(1, 99).halt();
    EXPECT_NO_THROW(t.add(cb.build()));
}

TEST(AnalysisTest, NonStrictTableAcceptsAnything)
{
    KernelTable t;
    t.setStrict(false);
    EXPECT_NO_THROW(t.add(rawKernel({Instr{Opcode::kJmp, 0, 0, 0, 40}})));
    EXPECT_EQ(t.size(), 1u);
}

// ---------------------------------------------------------------------
// Diagnostics plumbing
// ---------------------------------------------------------------------

TEST(AnalysisTest, DiagFormatting)
{
    analysis::Diag d;
    d.severity = Severity::kError;
    d.pc = 3;
    d.code = DiagCode::kBadBranchTarget;
    d.message = "target 42 is outside [0, 4)";
    EXPECT_EQ(analysis::formatDiag(d),
              "pc 3: error: [bad-branch-target] target 42 is outside "
              "[0, 4)");
    d.pc = analysis::kNoPc;
    d.severity = Severity::kWarning;
    d.code = DiagCode::kCallbackCycle;
    d.message = "m";
    EXPECT_EQ(analysis::formatDiag(d), "warning: [callback-cycle] m");
}

} // namespace
} // namespace epf

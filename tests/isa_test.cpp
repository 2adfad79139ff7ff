/**
 * @file
 * Unit tests for the PPU ISA: builder, interpreter semantics per opcode,
 * trap behaviour, prefetch emission and the disassembler.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "isa/interpreter.hpp"
#include "isa/isa.hpp"

namespace epf
{
namespace
{

/** Run a kernel that ends by prefetching its result register r1. */
std::uint64_t
evalR1(KernelBuilder &b, const EventContext &ctx, ExitReason *exit = nullptr)
{
    b.prefetch(1).halt();
    Kernel k = b.build();
    std::vector<PrefetchEmit> emits;
    ExecResult r = Interpreter::run(k, ctx, &emits);
    if (exit != nullptr)
        *exit = r.exit;
    return emits.empty() ? 0 : emits.back().vaddr;
}

EventContext
plainCtx()
{
    static std::uint64_t globals[kGlobalRegs] = {};
    static std::uint64_t lookahead[4] = {4, 8, 16, 32};
    EventContext ctx;
    ctx.vaddr = 0x1234;
    ctx.globalRegs = globals;
    ctx.lookahead = lookahead;
    ctx.lookaheadEntries = 4;
    return ctx;
}

TEST(InterpreterTest, LiAndMov)
{
    KernelBuilder b("t");
    b.li(2, 99).mov(1, 2);
    EXPECT_EQ(evalR1(b, plainCtx()), 99u);
}

struct AluCase
{
    const char *name;
    Opcode op;
    std::int64_t a, b;
    std::uint64_t expect;
};

// Print a case by its name: gtest's default byte dump would include the
// name pointer, which ASLR moves on every run, so the listed test names
// would never be stable.
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << c.name;
}

class AluParam : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluParam, RegisterForm)
{
    auto c = GetParam();
    KernelBuilder b("t");
    b.li(2, c.a).li(3, c.b);
    // Emit the raw instruction via the matching builder method.
    switch (c.op) {
      case Opcode::kAdd: b.add(1, 2, 3); break;
      case Opcode::kSub: b.sub(1, 2, 3); break;
      case Opcode::kMul: b.mul(1, 2, 3); break;
      case Opcode::kDiv: b.div(1, 2, 3); break;
      case Opcode::kAnd: b.andr(1, 2, 3); break;
      case Opcode::kOr: b.orr(1, 2, 3); break;
      case Opcode::kXor: b.xorr(1, 2, 3); break;
      case Opcode::kShl: b.shl(1, 2, 3); break;
      case Opcode::kShr: b.shr(1, 2, 3); break;
      default: FAIL();
    }
    EXPECT_EQ(evalR1(b, plainCtx()), c.expect) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluParam,
    ::testing::Values(
        AluCase{"add", Opcode::kAdd, 7, 5, 12},
        AluCase{"add_wrap", Opcode::kAdd, -1, 2, 1},
        AluCase{"sub", Opcode::kSub, 7, 5, 2},
        AluCase{"sub_neg", Opcode::kSub, 5, 7,
                static_cast<std::uint64_t>(-2)},
        AluCase{"mul", Opcode::kMul, 7, 5, 35},
        AluCase{"div", Opcode::kDiv, 35, 5, 7},
        AluCase{"div_signed", Opcode::kDiv, -35, 5,
                static_cast<std::uint64_t>(-7)},
        AluCase{"and", Opcode::kAnd, 0xFF, 0x0F, 0x0F},
        AluCase{"or", Opcode::kOr, 0xF0, 0x0F, 0xFF},
        AluCase{"xor", Opcode::kXor, 0xFF, 0x0F, 0xF0},
        AluCase{"shl", Opcode::kShl, 3, 4, 48},
        AluCase{"shr", Opcode::kShr, 48, 4, 3}),
    [](const auto &info) { return info.param.name; });

TEST(InterpreterTest, ImmediateForms)
{
    KernelBuilder b("t");
    b.li(1, 10)
        .addi(1, 1, 5)   // 15
        .muli(1, 1, 4)   // 60
        .divi(1, 1, 3)   // 20
        .andi(1, 1, 0x1C) // 20 & 28 = 20
        .shli(1, 1, 2)   // 80
        .shri(1, 1, 1);  // 40
    EXPECT_EQ(evalR1(b, plainCtx()), 40u);
}

TEST(InterpreterTest, VaddrAndLineBase)
{
    EventContext ctx = plainCtx();
    ctx.vaddr = 0x1278;
    {
        KernelBuilder b("t");
        b.vaddr(1);
        EXPECT_EQ(evalR1(b, ctx), 0x1278u);
    }
    {
        KernelBuilder b("t");
        b.lineBase(1);
        EXPECT_EQ(evalR1(b, ctx), 0x1240u);
    }
}

TEST(InterpreterTest, LdLineReadsObservedData)
{
    EventContext ctx = plainCtx();
    ctx.hasLine = true;
    std::uint64_t words[8] = {11, 22, 33, 44, 55, 66, 77, 88};
    std::memcpy(ctx.line.data(), words, sizeof(words));
    ctx.vaddr = lineAlign(ctx.vaddr) + 16; // third word

    KernelBuilder b("t");
    b.vaddr(2).ldLine(1, 2, 0);
    EXPECT_EQ(evalR1(b, ctx), 33u);

    KernelBuilder b2("t");
    b2.vaddr(2).ldLine(1, 2, 8); // next word
    EXPECT_EQ(evalR1(b2, ctx), 44u);
}

TEST(InterpreterTest, LdLine32ZeroExtends)
{
    EventContext ctx = plainCtx();
    ctx.hasLine = true;
    std::uint32_t words[16];
    for (std::uint32_t i = 0; i < 16; ++i)
        words[i] = 0x80000000u + i;
    std::memcpy(ctx.line.data(), words, sizeof(words));
    ctx.vaddr = lineAlign(ctx.vaddr);

    KernelBuilder b("t");
    b.li(2, 4).ldLine32(1, 2, 0);
    EXPECT_EQ(evalR1(b, ctx), 0x80000001u);
}

TEST(InterpreterTest, LdLineWithoutDataTraps)
{
    EventContext ctx = plainCtx();
    ctx.hasLine = false;
    KernelBuilder b("t");
    b.li(2, 0).ldLine(1, 2, 0);
    ExitReason exit;
    evalR1(b, ctx, &exit);
    EXPECT_EQ(exit, ExitReason::kTrapped);
}

TEST(InterpreterTest, GlobalRegisterRead)
{
    std::uint64_t globals[kGlobalRegs] = {};
    globals[7] = 0xABCD;
    EventContext ctx = plainCtx();
    ctx.globalRegs = globals;
    KernelBuilder b("t");
    b.gread(1, 7);
    EXPECT_EQ(evalR1(b, ctx), 0xABCDu);
}

TEST(InterpreterTest, LookaheadRead)
{
    EventContext ctx = plainCtx();
    KernelBuilder b("t");
    b.lookahead(1, 2);
    EXPECT_EQ(evalR1(b, ctx), 16u);
}

TEST(InterpreterTest, LookaheadOutOfRangeTraps)
{
    EventContext ctx = plainCtx();
    KernelBuilder b("t");
    b.lookahead(1, 9);
    ExitReason exit;
    evalR1(b, ctx, &exit);
    EXPECT_EQ(exit, ExitReason::kTrapped);
}

TEST(InterpreterTest, DivByZeroTraps)
{
    KernelBuilder b("t");
    b.li(1, 5).li(2, 0).div(1, 1, 2);
    ExitReason exit;
    evalR1(b, plainCtx(), &exit);
    EXPECT_EQ(exit, ExitReason::kTrapped);
}

TEST(InterpreterTest, DivOverflowTraps)
{
    // INT64_MIN / -1 does not fit in 64 bits; real hardware raises the
    // same exception as /0, and evaluating it in C++ is UB, so the
    // interpreter traps instead of dividing.
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    KernelBuilder b("t");
    b.li(1, min).li(2, -1).div(1, 1, 2);
    ExitReason exit;
    evalR1(b, plainCtx(), &exit);
    EXPECT_EQ(exit, ExitReason::kTrapped);
}

TEST(InterpreterTest, DiviOverflowTraps)
{
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    KernelBuilder b("t");
    b.li(1, min).divi(1, 1, -1);
    ExitReason exit;
    evalR1(b, plainCtx(), &exit);
    EXPECT_EQ(exit, ExitReason::kTrapped);
}

TEST(InterpreterTest, DivNearOverflowStillDivides)
{
    // The two individually-benign halves of the overflow pair must not
    // trap: INT64_MIN / 1 and (INT64_MIN + 1) / -1 are representable.
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    {
        KernelBuilder b("t");
        b.li(1, min).divi(1, 1, 1);
        ExitReason exit;
        EXPECT_EQ(evalR1(b, plainCtx(), &exit),
                  static_cast<std::uint64_t>(min));
        EXPECT_EQ(exit, ExitReason::kHalted);
    }
    {
        KernelBuilder b("t");
        b.li(1, min + 1).li(2, -1).div(1, 1, 2);
        ExitReason exit;
        EXPECT_EQ(evalR1(b, plainCtx(), &exit),
                  static_cast<std::uint64_t>(-(min + 1)));
        EXPECT_EQ(exit, ExitReason::kHalted);
    }
}

TEST(InterpreterTest, InfiniteLoopHitsStepLimit)
{
    KernelBuilder b("t");
    auto top = b.newLabel();
    b.bind(top).jmp(top);
    Kernel k = b.build();
    ExecResult r = Interpreter::run(k, plainCtx(), nullptr, 100);
    EXPECT_EQ(r.exit, ExitReason::kStepLimit);
    EXPECT_EQ(r.cycles, 100u);
}

TEST(InterpreterTest, BranchesAndLoop)
{
    // Sum 1..5 with a loop: r1 = sum, r2 = i.
    KernelBuilder b("t");
    auto loop = b.newLabel();
    b.li(1, 0).li(2, 1).li(3, 6);
    b.bind(loop).add(1, 1, 2).addi(2, 2, 1).blt(2, 3, loop);
    EXPECT_EQ(evalR1(b, plainCtx()), 15u);
}

TEST(InterpreterTest, ConditionalSkip)
{
    KernelBuilder b("t");
    auto skip = b.newLabel();
    b.li(1, 1).li(2, 5).li(3, 5);
    b.beq(2, 3, skip).li(1, 99); // skipped
    b.bind(skip);
    EXPECT_EQ(evalR1(b, plainCtx()), 1u);
}

TEST(InterpreterTest, PrefetchVariantsCarryMetadata)
{
    KernelBuilder b("t");
    b.li(1, 0x4000)
        .prefetch(1)
        .prefetchTag(1, 3)
        .prefetchCb(1, 17)
        .halt();
    Kernel k = b.build();

    std::vector<PrefetchEmit> emits;
    ExecResult r = Interpreter::run(k, plainCtx(), &emits);
    EXPECT_EQ(r.exit, ExitReason::kHalted);
    ASSERT_EQ(emits.size(), 3u);
    EXPECT_EQ(emits[0].tag, -1);
    EXPECT_EQ(emits[0].cbKernel, kNoKernel);
    EXPECT_EQ(emits[1].tag, 3);
    EXPECT_EQ(emits[2].cbKernel, 17);
    EXPECT_EQ(r.emitted, 3u);
}

TEST(InterpreterTest, CyclesMatchInstructionCount)
{
    KernelBuilder b("t");
    b.li(1, 1).addi(1, 1, 1).addi(1, 1, 1).halt();
    Kernel k = b.build();
    ExecResult r = Interpreter::run(k, plainCtx(), nullptr);
    EXPECT_EQ(r.cycles, 4u);
}

TEST(InterpreterTest, BoundaryAndWildBranchesTrap)
{
    // Falling off the end traps without charging a cycle for the
    // missing fetch; the instructions before it keep their effects.
    {
        KernelBuilder b("falloff");
        b.li(1, 1).addi(1, 1, 1); // no halt
        std::uint64_t regs[kPpuRegs];
        ExecResult r = Interpreter::run(b.build(), plainCtx(), nullptr,
                                        kMaxKernelSteps, regs);
        EXPECT_EQ(r.exit, ExitReason::kTrapped);
        EXPECT_EQ(r.cycles, 2u);
        EXPECT_EQ(regs[1], 2u);
    }
    // A jump out of range in either direction is charged, then traps.
    {
        Kernel k{"wild", {Instr{Opcode::kJmp, 0, 0, 0, 1000},
                          Instr{Opcode::kHalt, 0, 0, 0, 0}}};
        ExecResult r = Interpreter::run(k, plainCtx(), nullptr);
        EXPECT_EQ(r.exit, ExitReason::kTrapped);
        EXPECT_EQ(r.cycles, 1u);
    }
    {
        Kernel k{"neg", {Instr{Opcode::kJmp, 0, 0, 0, -55}}};
        ExecResult r = Interpreter::run(k, plainCtx(), nullptr);
        EXPECT_EQ(r.exit, ExitReason::kTrapped);
        EXPECT_EQ(r.cycles, 1u);
    }
}

TEST(InterpreterTest, OutOfEnumOpcodeIsAChargedNop)
{
    // An opcode byte outside the enum (only constructible from raw
    // Instr structs) is charged a cycle and otherwise ignored: it
    // neither traps nor writes its rd.
    Kernel k{"weird", {Instr{Opcode::kLi, 1, 0, 0, 5},
                       Instr{static_cast<Opcode>(200), 1, 2, 3, 7},
                       Instr{Opcode::kHalt, 0, 0, 0, 0}}};
    std::uint64_t regs[kPpuRegs];
    ExecResult r =
        Interpreter::run(k, plainCtx(), nullptr, kMaxKernelSteps, regs);
    EXPECT_EQ(r.exit, ExitReason::kHalted);
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_EQ(r.emitted, 0u);
    EXPECT_EQ(regs[1], 5u);
}

TEST(InterpreterTest, EmptyKernelTrapsWithZeroCycles)
{
    const Kernel k{"empty", {}};
    ExecResult r = Interpreter::run(k, plainCtx(), nullptr);
    EXPECT_EQ(r.exit, ExitReason::kTrapped);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.emitted, 0u);
}

TEST(KernelTableTest, AddAndFootprint)
{
    KernelTable kt;
    KernelBuilder b("k0");
    b.li(1, 1).halt();
    KernelId id = kt.add(b.build());
    EXPECT_TRUE(kt.valid(id));
    EXPECT_FALSE(kt.valid(kNoKernel));
    EXPECT_FALSE(kt.valid(99));
    EXPECT_EQ(kt.totalBytes(), 2u * 4u);
    EXPECT_EQ(kt[id].name, "k0");
}

TEST(DisasmTest, RendersKeyOpcodes)
{
    EXPECT_EQ(disassemble(Instr{Opcode::kLi, 1, 0, 0, 42}), "li r1, 42");
    EXPECT_EQ(disassemble(Instr{Opcode::kAdd, 1, 2, 3, 0}),
              "add r1, r2, r3");
    EXPECT_EQ(disassemble(Instr{Opcode::kPrefetchTag, 0, 4, 0, 7}),
              "prefetch.tag r4, tag=7");
    EXPECT_EQ(disassemble(Instr{Opcode::kGread, 5, 0, 0, 3}),
              "gread r5, g3");
    Kernel k;
    k.name = "demo";
    k.code = {Instr{Opcode::kHalt, 0, 0, 0, 0}};
    std::string text = disassemble(k);
    EXPECT_NE(text.find("demo:"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}

/** Property: random linear (branch-free) programs always halt. */
TEST(InterpreterTest, RandomLinearProgramsTerminate)
{
    std::uint64_t seed = 12345;
    for (int trial = 0; trial < 200; ++trial) {
        KernelBuilder b("rand");
        seed = seed * 6364136223846793005ULL + 1;
        unsigned len = 1 + (seed >> 40) % 30;
        for (unsigned i = 0; i < len; ++i) {
            seed = seed * 6364136223846793005ULL + 1;
            switch ((seed >> 33) % 6) {
              case 0: b.li(seed % kPpuRegs, static_cast<std::int64_t>(seed)); break;
              case 1: b.add(seed % kPpuRegs, (seed >> 8) % kPpuRegs, (seed >> 16) % kPpuRegs); break;
              case 2: b.muli(seed % kPpuRegs, (seed >> 8) % kPpuRegs, 3); break;
              case 3: b.vaddr(seed % kPpuRegs); break;
              case 4: b.shri(seed % kPpuRegs, (seed >> 8) % kPpuRegs, 5); break;
              default: b.prefetch(seed % kPpuRegs); break;
            }
        }
        b.halt();
        Kernel k = b.build();
        ExecResult r = Interpreter::run(k, plainCtx(), nullptr);
        EXPECT_EQ(r.exit, ExitReason::kHalted);
        EXPECT_LE(r.cycles, len + 1);
    }
}

// ---------------------------------------------------------------------
// Builder hardening: malformed programs throw instead of silently
// producing a broken kernel in release builds.
// ---------------------------------------------------------------------

TEST(BuilderTest, ThrowsOnOutOfRangeRegister)
{
    KernelBuilder b("regs");
    EXPECT_THROW(b.li(kPpuRegs, 1), std::invalid_argument);
    EXPECT_THROW(b.add(1, 2, 200), std::invalid_argument);
    EXPECT_THROW(b.prefetch(16), std::invalid_argument);
    EXPECT_NO_THROW(b.li(kPpuRegs - 1, 1));
}

TEST(BuilderTest, ThrowsOnUnboundLabelAtBuild)
{
    KernelBuilder b("unbound");
    auto l = b.newLabel();
    b.li(1, 1).beq(1, 1, l).halt();
    EXPECT_THROW(b.build(), std::invalid_argument);
    // Binding it repairs the kernel.
    b.bind(l).halt();
    EXPECT_NO_THROW(b.build());
}

TEST(BuilderTest, ThrowsOnDoubleBind)
{
    KernelBuilder b("double");
    auto l = b.newLabel();
    b.bind(l).li(1, 1);
    EXPECT_THROW(b.bind(l), std::invalid_argument);
}

TEST(BuilderTest, ThrowsOnForeignLabel)
{
    KernelBuilder a("a");
    KernelBuilder b("b");
    auto la = a.newLabel();
    (void)la;
    KernelBuilder::Label never; // id -1: not from any builder
    EXPECT_THROW(b.bind(never), std::invalid_argument);
    EXPECT_THROW(b.jmp(never), std::invalid_argument);
    // A label from another builder with an id this builder never
    // allocated is also foreign.
    auto la2 = a.newLabel();
    (void)la2;
    auto foreign = KernelBuilder::Label{1};
    EXPECT_THROW(b.bind(foreign), std::invalid_argument);
}

} // namespace
} // namespace epf

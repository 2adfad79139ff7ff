/**
 * @file
 * ISA round-trip fuzzer (tier 2).
 *
 * Property: any PPU instruction survives every representation change
 * losslessly.  For 10k seeded-random programs (plus one deterministic
 * program covering every opcode), the same kernel is produced three
 * ways — raw Instr structs, the KernelBuilder fluent API, and
 * disassemble() -> parseInstr() — and all three must (a) re-encode to
 * identical bytes and (b) execute with identical effects: exit reason,
 * cycle count, and the exact emitted prefetch sequence.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "isa/analysis/verifier.hpp"
#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "isa/interpreter.hpp"
#include "sim/rng.hpp"

namespace epf
{
namespace
{

constexpr unsigned kPrograms = 10'000;
constexpr unsigned kMaxLen = 24;
constexpr unsigned kFuzzSteps = 256;

/** Canonical byte encoding of an instruction (no struct padding). */
std::array<std::uint8_t, 12>
encode(const Instr &in)
{
    std::array<std::uint8_t, 12> b{};
    b[0] = static_cast<std::uint8_t>(in.op);
    b[1] = in.rd;
    b[2] = in.rs;
    b[3] = in.rt;
    const auto imm = static_cast<std::uint64_t>(in.imm);
    for (int i = 0; i < 8; ++i)
        b[4 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(imm >> (8 * i));
    return b;
}

std::vector<std::uint8_t>
encodeAll(const std::vector<Instr> &code)
{
    std::vector<std::uint8_t> out;
    for (const Instr &in : code) {
        const auto b = encode(in);
        out.insert(out.end(), b.begin(), b.end());
    }
    return out;
}

/** Execution effects: result fields plus the exact emit sequence. */
struct Effects
{
    ExitReason exit;
    std::uint32_t cycles;
    std::uint32_t emitted;
    std::vector<PrefetchEmit> emits;

    bool
    operator==(const Effects &o) const
    {
        if (exit != o.exit || cycles != o.cycles || emitted != o.emitted ||
            emits.size() != o.emits.size())
            return false;
        for (std::size_t i = 0; i < emits.size(); ++i) {
            if (emits[i].vaddr != o.emits[i].vaddr ||
                emits[i].tag != o.emits[i].tag ||
                emits[i].cbKernel != o.emits[i].cbKernel)
                return false;
        }
        return true;
    }
};

Effects
execute(const Kernel &k, const EventContext &ctx)
{
    Effects fx;
    const ExecResult res = Interpreter::run(k, ctx, &fx.emits, kFuzzSteps);
    fx.exit = res.exit;
    fx.cycles = res.cycles;
    fx.emitted = res.emitted;
    return fx;
}

/** All opcodes the generator draws from (every ISA instruction). */
constexpr Opcode kAllOpcodes[] = {
    Opcode::kHalt,     Opcode::kNop,      Opcode::kLi,
    Opcode::kMov,      Opcode::kAdd,      Opcode::kSub,
    Opcode::kMul,      Opcode::kDiv,      Opcode::kAnd,
    Opcode::kOr,       Opcode::kXor,      Opcode::kShl,
    Opcode::kShr,      Opcode::kAddi,     Opcode::kMuli,
    Opcode::kDivi,     Opcode::kAndi,     Opcode::kShli,
    Opcode::kShri,     Opcode::kVaddr,    Opcode::kLineBase,
    Opcode::kLdLine,   Opcode::kLdLine32, Opcode::kGread,
    Opcode::kLookahead, Opcode::kPrefetch, Opcode::kPrefetchTag,
    Opcode::kPrefetchCb, Opcode::kBeq,    Opcode::kBne,
    Opcode::kBlt,      Opcode::kBge,      Opcode::kJmp,
};

/** Occasionally-extreme signed immediate. */
std::int64_t
fuzzImm(Rng &rng)
{
    switch (rng.below(8)) {
      case 0: return 0;
      case 1: return -1;
      case 2: return std::numeric_limits<std::int64_t>::min();
      case 3: return std::numeric_limits<std::int64_t>::max();
      default:
        return static_cast<std::int64_t>(rng.next());
    }
}

/**
 * One random instruction at position @p at of a @p len-instruction
 * program.  Branch targets stay in [0, len] so the same program can be
 * reproduced through KernelBuilder labels (a bound label must point
 * into the program; target == len is the implicit fall-off-the-end).
 */
Instr
fuzzInstr(Rng &rng, unsigned at, unsigned len,
          std::optional<Opcode> force = std::nullopt)
{
    Instr in;
    in.op = force ? *force : kAllOpcodes[rng.below(std::size(kAllOpcodes))];
    switch (in.op) {
      case Opcode::kHalt:
      case Opcode::kNop:
        break;
      case Opcode::kVaddr:
      case Opcode::kLineBase:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        break;
      case Opcode::kLi:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.imm = fuzzImm(rng);
        break;
      case Opcode::kMov:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.rt = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        break;
      case Opcode::kAddi:
      case Opcode::kMuli:
      case Opcode::kDivi: // imm 0 exercises the div-by-zero trap
      case Opcode::kAndi:
      case Opcode::kShli:
      case Opcode::kShri:
      case Opcode::kLdLine:
      case Opcode::kLdLine32:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.imm = fuzzImm(rng);
        break;
      case Opcode::kGread:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        // Mostly valid indices; sometimes out of range (traps).
        in.imm = static_cast<std::int64_t>(rng.below(kGlobalRegs + 8));
        break;
      case Opcode::kLookahead:
        in.rd = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.imm = static_cast<std::int64_t>(rng.below(8));
        break;
      case Opcode::kPrefetch:
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        break;
      case Opcode::kPrefetchTag:
      case Opcode::kPrefetchCb:
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.imm = static_cast<std::int64_t>(rng.below(16));
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
        in.rs = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.rt = static_cast<std::uint8_t>(rng.below(kPpuRegs));
        in.imm = static_cast<std::int64_t>(rng.below(len + 1)) -
                 static_cast<std::int64_t>(at) - 1;
        break;
      case Opcode::kJmp:
        in.imm = static_cast<std::int64_t>(rng.below(len + 1)) -
                 static_cast<std::int64_t>(at) - 1;
        break;
    }
    return in;
}

/** Rebuild @p code through the KernelBuilder fluent API. */
Kernel
rebuildViaBuilder(const std::vector<Instr> &code)
{
    KernelBuilder b("fuzz");
    // One label per possible target index; bound as emission reaches it.
    std::vector<KernelBuilder::Label> labels;
    std::vector<bool> used(code.size() + 1, false);
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Instr &in = code[i];
        if (in.op == Opcode::kBeq || in.op == Opcode::kBne ||
            in.op == Opcode::kBlt || in.op == Opcode::kBge ||
            in.op == Opcode::kJmp)
            used[static_cast<std::size_t>(
                static_cast<std::int64_t>(i) + 1 + in.imm)] = true;
    }
    labels.reserve(used.size());
    for (std::size_t i = 0; i < used.size(); ++i)
        labels.push_back(b.newLabel());

    for (std::size_t i = 0; i < code.size(); ++i) {
        if (used[i])
            b.bind(labels[i]);
        const Instr &in = code[i];
        auto target = [&](std::int64_t imm) {
            return labels[static_cast<std::size_t>(
                static_cast<std::int64_t>(i) + 1 + imm)];
        };
        switch (in.op) {
          case Opcode::kHalt: b.halt(); break;
          case Opcode::kNop: b.nop(); break;
          case Opcode::kLi: b.li(in.rd, in.imm); break;
          case Opcode::kMov: b.mov(in.rd, in.rs); break;
          case Opcode::kAdd: b.add(in.rd, in.rs, in.rt); break;
          case Opcode::kSub: b.sub(in.rd, in.rs, in.rt); break;
          case Opcode::kMul: b.mul(in.rd, in.rs, in.rt); break;
          case Opcode::kDiv: b.div(in.rd, in.rs, in.rt); break;
          case Opcode::kAnd: b.andr(in.rd, in.rs, in.rt); break;
          case Opcode::kOr: b.orr(in.rd, in.rs, in.rt); break;
          case Opcode::kXor: b.xorr(in.rd, in.rs, in.rt); break;
          case Opcode::kShl: b.shl(in.rd, in.rs, in.rt); break;
          case Opcode::kShr: b.shr(in.rd, in.rs, in.rt); break;
          case Opcode::kAddi: b.addi(in.rd, in.rs, in.imm); break;
          case Opcode::kMuli: b.muli(in.rd, in.rs, in.imm); break;
          case Opcode::kDivi: b.divi(in.rd, in.rs, in.imm); break;
          case Opcode::kAndi: b.andi(in.rd, in.rs, in.imm); break;
          case Opcode::kShli: b.shli(in.rd, in.rs, in.imm); break;
          case Opcode::kShri: b.shri(in.rd, in.rs, in.imm); break;
          case Opcode::kVaddr: b.vaddr(in.rd); break;
          case Opcode::kLineBase: b.lineBase(in.rd); break;
          case Opcode::kLdLine: b.ldLine(in.rd, in.rs, in.imm); break;
          case Opcode::kLdLine32: b.ldLine32(in.rd, in.rs, in.imm); break;
          case Opcode::kGread:
            b.gread(in.rd, static_cast<unsigned>(in.imm));
            break;
          case Opcode::kLookahead:
            b.lookahead(in.rd, static_cast<unsigned>(in.imm));
            break;
          case Opcode::kPrefetch: b.prefetch(in.rs); break;
          case Opcode::kPrefetchTag:
            b.prefetchTag(in.rs, in.imm);
            break;
          case Opcode::kPrefetchCb:
            b.prefetchCb(in.rs, static_cast<KernelId>(in.imm));
            break;
          case Opcode::kBeq: b.beq(in.rs, in.rt, target(in.imm)); break;
          case Opcode::kBne: b.bne(in.rs, in.rt, target(in.imm)); break;
          case Opcode::kBlt: b.blt(in.rs, in.rt, target(in.imm)); break;
          case Opcode::kBge: b.bge(in.rs, in.rt, target(in.imm)); break;
          case Opcode::kJmp: b.jmp(target(in.imm)); break;
        }
    }
    if (used[code.size()])
        b.bind(labels[code.size()]);
    return b.build();
}

/** Rebuild via disassemble() -> parseInstr(), line by line. */
std::vector<Instr>
rebuildViaText(const std::vector<Instr> &code)
{
    std::vector<Instr> out;
    out.reserve(code.size());
    for (const Instr &in : code)
        out.push_back(parseInstr(disassemble(in)));
    return out;
}

EventContext
fuzzContext(Rng &rng, const std::vector<std::uint64_t> &globals,
            const std::vector<std::uint64_t> &lookahead, LineData &line)
{
    EventContext ctx;
    ctx.vaddr = rng.next();
    ctx.hasLine = rng.below(2) == 0;
    for (auto &b : line)
        b = static_cast<std::byte>(rng.next());
    ctx.line = line;
    ctx.globalRegs = globals.data();
    ctx.lookahead = lookahead.data();
    ctx.lookaheadEntries = static_cast<unsigned>(lookahead.size());
    return ctx;
}

/**
 * Static-analyzer cross-validation: an acyclic kernel executes at most
 * code.size() < kFuzzSteps instructions, so a kernel the verifier does
 * not flag with a watchdog-loop warning must never end on the step
 * limit.  The analysis context mirrors what is knowable about @p ctx —
 * the event's line kind and the lookahead entry count — since proven
 * traps cut the CFG and can break a cycle.
 */
void
checkAnalyzerAgrees(const Kernel &k, const EventContext &ctx,
                    const Effects &fx, const std::string &what)
{
    analysis::KernelContext actx;
    actx.line = ctx.hasLine ? analysis::KernelContext::Line::kAlways
                            : analysis::KernelContext::Line::kNever;
    actx.lookaheadEntries = static_cast<int>(ctx.lookaheadEntries);
    const analysis::KernelAnalysis ka = analysis::analyzeKernel(k, actx);

    bool watchdogLoop = false;
    for (const analysis::Diag &d : ka.diags)
        watchdogLoop = watchdogLoop ||
                       d.code == analysis::DiagCode::kWatchdogLoop;
    if (!watchdogLoop) {
        ASSERT_NE(fx.exit, ExitReason::kStepLimit)
            << what << ": kernel without a watchdog-loop warning hit the "
            << "step limit\n"
            << disassemble(k);
    }
}

void
checkProgram(const std::vector<Instr> &code, const EventContext &ctx,
             const std::string &what)
{
    const Kernel raw{"fuzz", code};
    const Kernel built = rebuildViaBuilder(code);
    const Kernel parsed{"fuzz", rebuildViaText(code)};

    ASSERT_EQ(encodeAll(built.code), encodeAll(code))
        << what << ": builder re-encoding differs";
    ASSERT_EQ(encodeAll(parsed.code), encodeAll(code))
        << what << ": disasm->parse re-encoding differs\n"
        << disassemble(raw);

    const Effects fx_raw = execute(raw, ctx);
    const Effects fx_built = execute(built, ctx);
    const Effects fx_parsed = execute(parsed, ctx);
    ASSERT_TRUE(fx_built == fx_raw) << what << ": builder effects differ";
    ASSERT_TRUE(fx_parsed == fx_raw)
        << what << ": parsed effects differ\n"
        << disassemble(raw);

    checkAnalyzerAgrees(raw, ctx, fx_raw, what);
}

TEST(IsaFuzz, EveryOpcodeRoundTripsDeterministically)
{
    // One program containing every opcode once, with branch targets at
    // the end so it executes most of itself.
    Rng rng(7);
    std::vector<Instr> code;
    const unsigned len = static_cast<unsigned>(std::size(kAllOpcodes));
    for (unsigned i = 0; i < len; ++i) {
        Instr in = fuzzInstr(rng, i, len, kAllOpcodes[i]);
        if (in.op == Opcode::kBeq || in.op == Opcode::kBne ||
            in.op == Opcode::kBlt || in.op == Opcode::kBge ||
            in.op == Opcode::kJmp)
            in.imm = static_cast<std::int64_t>(len) -
                     static_cast<std::int64_t>(i) - 1;
        if (in.op == Opcode::kDivi && in.imm == 0)
            in.imm = 3;
        if (in.op == Opcode::kGread)
            in.imm = 5;
        code.push_back(in);
    }
    std::vector<std::uint64_t> globals(kGlobalRegs, 0x1111);
    std::vector<std::uint64_t> lookahead(4, 2);
    LineData line{};
    EventContext ctx = fuzzContext(rng, globals, lookahead, line);
    ctx.hasLine = true;
    checkProgram(code, ctx, "deterministic");
}

TEST(IsaFuzz, DivOverflowSeed)
{
    // Directed seed for the signed-division UB fix: INT64_MIN / -1
    // must trap (like /0) in both divide forms,
    // while the two individually-benign halves still divide.
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    Rng rng(11);
    std::vector<std::uint64_t> globals(kGlobalRegs, 1);
    std::vector<std::uint64_t> lookahead(4, 2);
    LineData line{};
    const EventContext ctx = fuzzContext(rng, globals, lookahead, line);

    checkProgram({Instr{Opcode::kLi, 1, 0, 0, min},
                  Instr{Opcode::kLi, 2, 0, 0, -1},
                  Instr{Opcode::kDiv, 3, 1, 2, 0},
                  Instr{Opcode::kHalt, 0, 0, 0, 0}},
                 ctx, "div overflow seed");
    checkProgram({Instr{Opcode::kLi, 1, 0, 0, min},
                  Instr{Opcode::kDivi, 3, 1, 0, -1},
                  Instr{Opcode::kHalt, 0, 0, 0, 0}},
                 ctx, "divi overflow seed");
    checkProgram({Instr{Opcode::kLi, 1, 0, 0, min + 1},
                  Instr{Opcode::kDivi, 3, 1, 0, -1},
                  Instr{Opcode::kLi, 2, 0, 0, 1},
                  Instr{Opcode::kDiv, 3, 1, 2, 0},
                  Instr{Opcode::kHalt, 0, 0, 0, 0}},
                 ctx, "near-overflow divides");
}

TEST(IsaFuzz, TenThousandRandomPrograms)
{
    Rng rng(0xF022AB1E);
    std::vector<std::uint64_t> globals(kGlobalRegs);
    std::vector<std::uint64_t> lookahead(4);

    for (unsigned p = 0; p < kPrograms; ++p) {
        const unsigned len = 1 + static_cast<unsigned>(rng.below(kMaxLen));
        std::vector<Instr> code;
        code.reserve(len);
        for (unsigned i = 0; i < len; ++i)
            code.push_back(fuzzInstr(rng, i, len));

        for (auto &g : globals)
            g = rng.next();
        for (auto &l : lookahead)
            l = rng.below(64);
        LineData line{};
        const EventContext ctx = fuzzContext(rng, globals, lookahead, line);

        checkProgram(code, ctx, "program " + std::to_string(p));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace epf

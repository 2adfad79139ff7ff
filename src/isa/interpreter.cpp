#include "isa/interpreter.hpp"

#include <cstring>
#include <limits>

namespace epf
{

ExecResult
Interpreter::run(const Kernel &kernel, const EventContext &ctx,
                 std::vector<PrefetchEmit> *sink, unsigned max_steps,
                 std::uint64_t *regs_out)
{
    ExecResult res;
    std::uint64_t regs[kPpuRegs] = {};
    std::int64_t pc = 0;
    const auto size = static_cast<std::int64_t>(kernel.code.size());

    auto done = [&](ExitReason why) {
        res.exit = why;
        if (regs_out != nullptr)
            std::memcpy(regs_out, regs, sizeof(regs));
        return res;
    };
    auto trap = [&done]() { return done(ExitReason::kTrapped); };

    while (true) {
        if (res.cycles >= max_steps)
            return done(ExitReason::kStepLimit);
        if (pc < 0 || pc >= size)
            return trap();

        const Instr &in = kernel.code[static_cast<std::size_t>(pc)];
        ++pc;
        ++res.cycles;

        switch (in.op) {
          case Opcode::kHalt:
            return done(ExitReason::kHalted);
          case Opcode::kNop:
            break;

          case Opcode::kLi:
            regs[in.rd] = static_cast<std::uint64_t>(in.imm);
            break;
          case Opcode::kMov:
            regs[in.rd] = regs[in.rs];
            break;

          case Opcode::kAdd:
            regs[in.rd] = regs[in.rs] + regs[in.rt];
            break;
          case Opcode::kSub:
            regs[in.rd] = regs[in.rs] - regs[in.rt];
            break;
          case Opcode::kMul:
            regs[in.rd] = regs[in.rs] * regs[in.rt];
            break;
          case Opcode::kDiv:
            // INT64_MIN / -1 overflows (hardware raises the same
            // exception as /0), so both trap identically.
            if (regs[in.rt] == 0 ||
                (static_cast<std::int64_t>(regs[in.rt]) == -1 &&
                 static_cast<std::int64_t>(regs[in.rs]) ==
                     std::numeric_limits<std::int64_t>::min()))
                return trap();
            regs[in.rd] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(regs[in.rs]) /
                static_cast<std::int64_t>(regs[in.rt]));
            break;
          case Opcode::kAnd:
            regs[in.rd] = regs[in.rs] & regs[in.rt];
            break;
          case Opcode::kOr:
            regs[in.rd] = regs[in.rs] | regs[in.rt];
            break;
          case Opcode::kXor:
            regs[in.rd] = regs[in.rs] ^ regs[in.rt];
            break;
          case Opcode::kShl:
            regs[in.rd] = regs[in.rs] << (regs[in.rt] & 63);
            break;
          case Opcode::kShr:
            regs[in.rd] = regs[in.rs] >> (regs[in.rt] & 63);
            break;

          case Opcode::kAddi:
            regs[in.rd] = regs[in.rs] + static_cast<std::uint64_t>(in.imm);
            break;
          case Opcode::kMuli:
            regs[in.rd] = regs[in.rs] * static_cast<std::uint64_t>(in.imm);
            break;
          case Opcode::kDivi:
            if (in.imm == 0 ||
                (in.imm == -1 &&
                 static_cast<std::int64_t>(regs[in.rs]) ==
                     std::numeric_limits<std::int64_t>::min()))
                return trap();
            regs[in.rd] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(regs[in.rs]) / in.imm);
            break;
          case Opcode::kAndi:
            regs[in.rd] = regs[in.rs] & static_cast<std::uint64_t>(in.imm);
            break;
          case Opcode::kShli:
            regs[in.rd] = regs[in.rs] << (in.imm & 63);
            break;
          case Opcode::kShri:
            regs[in.rd] = regs[in.rs] >> (in.imm & 63);
            break;

          case Opcode::kVaddr:
            regs[in.rd] = ctx.vaddr;
            break;
          case Opcode::kLineBase:
            regs[in.rd] = lineAlign(ctx.vaddr);
            break;
          case Opcode::kLdLine: {
            if (!ctx.hasLine)
                return trap();
            unsigned off = static_cast<unsigned>(
                (regs[in.rs] + static_cast<std::uint64_t>(in.imm)) &
                (kLineBytes - 8));
            std::uint64_t v;
            std::memcpy(&v, ctx.line.data() + off, 8);
            regs[in.rd] = v;
            break;
          }
          case Opcode::kLdLine32: {
            if (!ctx.hasLine)
                return trap();
            unsigned off = static_cast<unsigned>(
                (regs[in.rs] + static_cast<std::uint64_t>(in.imm)) &
                (kLineBytes - 4));
            std::uint32_t v;
            std::memcpy(&v, ctx.line.data() + off, 4);
            regs[in.rd] = v;
            break;
          }
          case Opcode::kGread:
            if (in.imm < 0 || in.imm >= static_cast<std::int64_t>(kGlobalRegs) ||
                ctx.globalRegs == nullptr)
                return trap();
            regs[in.rd] = ctx.globalRegs[in.imm];
            break;
          case Opcode::kLookahead:
            if (in.imm < 0 ||
                in.imm >= static_cast<std::int64_t>(ctx.lookaheadEntries) ||
                ctx.lookahead == nullptr)
                return trap();
            regs[in.rd] = ctx.lookahead[in.imm];
            break;

          case Opcode::kPrefetch:
          case Opcode::kPrefetchTag:
          case Opcode::kPrefetchCb: {
            PrefetchEmit e;
            e.vaddr = regs[in.rs];
            if (in.op == Opcode::kPrefetchTag)
                e.tag = static_cast<std::int32_t>(in.imm);
            else if (in.op == Opcode::kPrefetchCb)
                e.cbKernel = static_cast<KernelId>(in.imm);
            ++res.emitted;
            if (sink != nullptr)
                sink->push_back(e);
            break;
          }

          case Opcode::kBeq:
            if (regs[in.rs] == regs[in.rt])
                pc += in.imm;
            break;
          case Opcode::kBne:
            if (regs[in.rs] != regs[in.rt])
                pc += in.imm;
            break;
          case Opcode::kBlt:
            if (static_cast<std::int64_t>(regs[in.rs]) <
                static_cast<std::int64_t>(regs[in.rt]))
                pc += in.imm;
            break;
          case Opcode::kBge:
            if (static_cast<std::int64_t>(regs[in.rs]) >=
                static_cast<std::int64_t>(regs[in.rt]))
                pc += in.imm;
            break;
          case Opcode::kJmp:
            pc += in.imm;
            break;
        }
    }
}

} // namespace epf

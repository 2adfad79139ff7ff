#include "isa/analysis/verifier.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "isa/analysis/cfg.hpp"
#include "isa/disasm.hpp"
#include "sim/types.hpp"

namespace epf::analysis
{
namespace
{

constexpr std::uint32_t kAllRegs = (1u << kPpuRegs) - 1;

std::uint32_t
bit(std::uint8_t reg)
{
    return 1u << (reg % kPpuRegs);
}

/** Register read and write sets of one instruction. */
struct UseDef
{
    std::uint32_t uses = 0;
    std::uint32_t defs = 0;
};

UseDef
useDef(const Instr &in)
{
    switch (in.op) {
      case Opcode::kHalt:
      case Opcode::kNop:
      case Opcode::kJmp:
        return {};
      // Observation and prefetcher-state reads are implicit defs: the
      // value comes from the event, not from a register.
      case Opcode::kLi:
      case Opcode::kVaddr:
      case Opcode::kLineBase:
      case Opcode::kGread:
      case Opcode::kLookahead:
        return {0, bit(in.rd)};
      case Opcode::kMov:
        return {bit(in.rs), bit(in.rd)};
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
        return {bit(in.rs) | bit(in.rt), bit(in.rd)};
      case Opcode::kAddi:
      case Opcode::kMuli:
      case Opcode::kDivi:
      case Opcode::kAndi:
      case Opcode::kShli:
      case Opcode::kShri:
      case Opcode::kLdLine:
      case Opcode::kLdLine32:
        return {bit(in.rs), bit(in.rd)};
      case Opcode::kPrefetch:
      case Opcode::kPrefetchTag:
      case Opcode::kPrefetchCb:
        return {bit(in.rs), 0};
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
        return {bit(in.rs) | bit(in.rt), 0};
    }
    return {}; // out-of-enum opcode byte: runs as a no-op
}

std::string
trapWhy(const Instr &in, const KernelContext &ctx)
{
    switch (in.op) {
      case Opcode::kDivi:
        return "divi by the zero immediate traps on every execution";
      case Opcode::kGread:
        return "gread index " + std::to_string(in.imm) +
               " is outside [0, " + std::to_string(kGlobalRegs) + ")";
      case Opcode::kLookahead:
        if (in.imm < 0)
            return "lookahead index " + std::to_string(in.imm) +
                   " is negative";
        return "lookahead index " + std::to_string(in.imm) +
               " >= the " + std::to_string(ctx.lookaheadEntries) +
               " installed filter entries";
      case Opcode::kLdLine:
      case Opcode::kLdLine32:
        return "ldline on an event kind that never carries line data";
      default:
        return "instruction traps on every execution";
    }
}

void
sortByPc(std::vector<Diag> &diags)
{
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diag &a, const Diag &b) { return a.pc < b.pc; });
}

/** Attach the disassembled instruction to every pc-anchored diag so the
 *  finding is actionable without a second lookup. */
void
fillInstrText(std::vector<Diag> &diags, const std::vector<Instr> &code)
{
    for (Diag &d : diags)
        if (d.pc != kNoPc && static_cast<std::size_t>(d.pc) < code.size() &&
            d.instrText.empty())
            d.instrText = disassemble(code[static_cast<std::size_t>(d.pc)]);
}

} // namespace

bool
alwaysTraps(const Instr &in)
{
    switch (in.op) {
      case Opcode::kDivi:
        return in.imm == 0;
      case Opcode::kGread:
        return in.imm < 0 ||
               in.imm >= static_cast<std::int64_t>(kGlobalRegs);
      case Opcode::kLookahead:
        return in.imm < 0;
      default:
        return false;
    }
}

bool
alwaysTraps(const Instr &in, const KernelContext &ctx)
{
    if (alwaysTraps(in))
        return true;
    switch (in.op) {
      case Opcode::kLdLine:
      case Opcode::kLdLine32:
        return ctx.line == KernelContext::Line::kNever;
      case Opcode::kLookahead:
        return ctx.lookaheadEntries >= 0 && in.imm >= ctx.lookaheadEntries;
      default:
        return false;
    }
}

KernelAnalysis
analyzeKernel(const Kernel &k, const KernelContext &ctx)
{
    KernelAnalysis out;
    const std::vector<Instr> &code = k.code;
    const auto size = static_cast<std::uint32_t>(code.size());

    if (size == 0) {
        out.diags.push_back({Severity::kError, kNoPc, DiagCode::kEmptyKernel,
                             "kernel has no instructions; any event traps "
                             "immediately"});
        return out;
    }

    // Static trap facts first: proven-trapping instructions terminate
    // their block, so the CFG (and everything downstream — reachability,
    // loops, dataflow) models execution stopping there.
    std::vector<std::uint8_t> trapAt(size, 0);
    for (std::uint32_t pc = 0; pc < size; ++pc)
        trapAt[pc] = alwaysTraps(code[pc], ctx) ? 1 : 0;

    const Cfg cfg(code, trapAt);

    out.reachablePc.assign(size, 0);
    for (const Block &b : cfg.blocks())
        if (b.reachable)
            for (std::uint32_t pc = b.first; pc <= b.last; ++pc)
                out.reachablePc[pc] = 1;

    // ---- control-flow validity --------------------------------------
    for (const Block &b : cfg.blocks()) {
        if (!b.reachable)
            continue;
        const Instr &last = code[b.last];
        if (b.exit != BlockExit::kFlows)
            continue;
        if (isBranch(last.op)) {
            const std::int64_t t = branchTarget(last, b.last);
            if (t < 0 || t >= static_cast<std::int64_t>(size))
                out.diags.push_back(
                    {Severity::kError, static_cast<int>(b.last),
                     DiagCode::kBadBranchTarget,
                     "branch target " + std::to_string(t) +
                         " is outside [0, " + std::to_string(size) + ")"});
        }
        // A conditional branch (or any non-jmp) at the end of the code
        // falls past the last instruction on its not-taken path.
        if (last.op != Opcode::kJmp && b.last + 1 == size)
            out.diags.push_back(
                {Severity::kError, static_cast<int>(b.last),
                 DiagCode::kFallOffEnd,
                 "execution can fall past the last instruction without "
                 "halt"});
    }
    for (const Block &b : cfg.blocks()) {
        if (b.reachable)
            continue;
        const std::string range =
            b.first == b.last
                ? "instruction " + std::to_string(b.first)
                : "instructions " + std::to_string(b.first) + ".." +
                      std::to_string(b.last);
        out.diags.push_back({Severity::kWarning, static_cast<int>(b.first),
                             DiagCode::kUnreachableCode,
                             range + " unreachable from the entry"});
    }
    if (!cfg.acyclic())
        out.diags.push_back(
            {Severity::kWarning, kNoPc, DiagCode::kWatchdogLoop,
             "control flow contains a cycle; worst case is bounded only "
             "by the " +
                 std::to_string(kMaxKernelSteps) + "-step watchdog"});

    // ---- static trap proofs -----------------------------------------
    // Instruction-local facts only: a reachable always-trapping
    // instruction is an error.
    for (std::uint32_t pc = 0; pc < size; ++pc)
        if (out.reachablePc[pc] && trapAt[pc] != 0)
            out.diags.push_back({Severity::kError, static_cast<int>(pc),
                                 DiagCode::kGuaranteedTrap,
                                 trapWhy(code[pc], ctx)});

    // ---- dead assignments (backward liveness) -----------------------
    // A def no path reads before overwrite or exit.  The instruction
    // may still matter for its trap side effect, so this is a lint on
    // the unused value, not a removability proof.
    {
        const std::size_t nb = cfg.size();
        std::vector<std::uint32_t> liveIn(nb, 0);
        std::vector<std::uint32_t> liveOut(nb, 0);
        bool changed = true;
        while (changed) {
            changed = false;
            for (auto it = cfg.rpo().rbegin(); it != cfg.rpo().rend(); ++it) {
                const std::uint32_t b = *it;
                const Block &blk = cfg.blocks()[b];
                std::uint32_t lo = 0;
                for (std::uint32_t s : blk.succs)
                    lo |= liveIn[s];
                std::uint32_t live = lo;
                for (std::uint32_t pc = blk.last + 1; pc-- > blk.first;) {
                    const UseDef ud = useDef(code[pc]);
                    live = (live & ~ud.defs) | ud.uses;
                }
                if (lo != liveOut[b] || live != liveIn[b]) {
                    liveOut[b] = lo;
                    liveIn[b] = live;
                    changed = true;
                }
            }
        }
        for (std::uint32_t bi : cfg.rpo()) {
            const Block &blk = cfg.blocks()[bi];
            std::uint32_t live = liveOut[bi];
            for (std::uint32_t pc = blk.last + 1; pc-- > blk.first;) {
                const UseDef ud = useDef(code[pc]);
                const std::uint32_t dead = ud.defs & ~live;
                if (dead != 0) {
                    for (unsigned r = 0; r < kPpuRegs; ++r)
                        if ((dead & (1u << r)) != 0)
                            out.diags.push_back(
                                {Severity::kWarning, static_cast<int>(pc),
                                 DiagCode::kDeadAssignment,
                                 "r" + std::to_string(r) +
                                     " is assigned here but never read "
                                     "afterwards on any path"});
                }
                live = (live & ~ud.defs) | ud.uses;
            }
        }
    }

    // ---- uninitialized-register reads (must-assigned dataflow) ------
    // Forward analysis; a register is "initialized" on entry to a block
    // only if every predecessor path assigns it.  The hardware zeroes
    // the file at event entry, so a failure is a warning, not an error.
    {
        const std::size_t nb = cfg.size();
        std::vector<std::uint32_t> in(nb, kAllRegs);
        std::vector<std::uint32_t> outSet(nb, kAllRegs);
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::uint32_t b : cfg.rpo()) {
                std::uint32_t cur = kAllRegs;
                if (cfg.preds(b).empty())
                    cur = 0; // the entry (and only the entry) is reachable
                             // with nothing assigned
                for (std::uint32_t p : cfg.preds(b))
                    cur &= outSet[p];
                if (cur != in[b]) {
                    in[b] = cur;
                    changed = true;
                }
                std::uint32_t defs = cur;
                const Block &blk = cfg.blocks()[b];
                for (std::uint32_t pc = blk.first; pc <= blk.last; ++pc)
                    defs |= useDef(code[pc]).defs;
                if (defs != outSet[b]) {
                    outSet[b] = defs;
                    changed = true;
                }
            }
        }
        std::vector<std::uint32_t> reported(size, 0);
        for (std::uint32_t b : cfg.rpo()) {
            std::uint32_t assigned = in[b];
            const Block &blk = cfg.blocks()[b];
            for (std::uint32_t pc = blk.first; pc <= blk.last; ++pc) {
                const UseDef ud = useDef(code[pc]);
                std::uint32_t bad = ud.uses & ~assigned & ~reported[pc];
                for (unsigned r = 0; r < kPpuRegs; ++r) {
                    if ((bad & (1u << r)) == 0)
                        continue;
                    out.diags.push_back(
                        {Severity::kWarning, static_cast<int>(pc),
                         DiagCode::kUninitRead,
                         "r" + std::to_string(r) +
                             " read before any definition (zero at event "
                             "entry)"});
                }
                reported[pc] |= bad;
                assigned |= ud.defs;
            }
        }
    }

    fillInstrText(out.diags, code);
    sortByPc(out.diags);
    return out;
}

bool
TableAnalysis::hasErrors() const
{
    if (analysis::hasErrors(tableDiags))
        return true;
    for (const KernelAnalysis &k : kernels)
        if (k.hasErrors())
            return true;
    return false;
}

std::size_t
TableAnalysis::diagCount() const
{
    std::size_t n = tableDiags.size();
    for (const KernelAnalysis &k : kernels)
        n += k.diags.size();
    return n;
}

TableAnalysis
analyzeTable(const KernelTable &table,
             const std::function<KernelContext(KernelId)> &ctxFor)
{
    TableAnalysis ta;
    const auto n = static_cast<KernelId>(table.size());
    ta.kernels.reserve(table.size());
    for (KernelId id = 0; id < n; ++id)
        ta.kernels.push_back(
            analyzeKernel(table[id], ctxFor ? ctxFor(id) : KernelContext{}));

    // Callback edges from reachable prefetch.cb instructions only: dead
    // code already carries its own warning.
    std::vector<std::vector<KernelId>> edges(table.size());
    for (KernelId id = 0; id < n; ++id) {
        const Kernel &k = table[id];
        KernelAnalysis &ka = ta.kernels[id];
        bool added = false;
        for (std::uint32_t pc = 0; pc < k.code.size(); ++pc) {
            const Instr &in = k.code[pc];
            if (in.op != Opcode::kPrefetchCb || !ka.reachablePc[pc])
                continue;
            const auto cb = static_cast<KernelId>(in.imm);
            if (!table.valid(cb)) {
                ka.diags.push_back(
                    {Severity::kError, static_cast<int>(pc),
                     DiagCode::kUnresolvedCallback,
                     "prefetch.cb id " + std::to_string(in.imm) +
                         " does not name a kernel in the table"});
                added = true;
            } else {
                edges[id].push_back(cb);
            }
        }
        if (added) {
            fillInstrText(ka.diags, k.code);
            sortByPc(ka.diags);
        }
    }

    // Cycle detection over the callback graph: a cycle means every fill
    // can trigger the next kernel unconditionally — an event storm only
    // the request-queue capacity throttles.
    {
        auto name = [&table](KernelId id) {
            const std::string &s = table[id].name;
            return s.empty() ? "#" + std::to_string(id) : s;
        };
        enum : std::uint8_t { kWhite, kGrey, kBlack };
        std::vector<std::uint8_t> color(table.size(), kWhite);
        struct Frame
        {
            KernelId node;
            std::size_t next;
        };
        for (KernelId root = 0; root < n; ++root) {
            if (color[root] != kWhite)
                continue;
            std::vector<Frame> stack{{root, 0}};
            color[root] = kGrey;
            while (!stack.empty()) {
                Frame &f = stack.back();
                if (f.next < edges[f.node].size()) {
                    const KernelId s = edges[f.node][f.next++];
                    if (color[s] == kWhite) {
                        color[s] = kGrey;
                        stack.push_back({s, 0});
                    } else if (color[s] == kGrey) {
                        // The cycle is the stack suffix starting at s.
                        std::string path = name(s);
                        std::size_t at = stack.size();
                        while (stack[at - 1].node != s)
                            --at;
                        for (std::size_t i = at; i < stack.size(); ++i) {
                            path += " -> ";
                            path += name(stack[i].node);
                        }
                        path += " -> " + name(s);
                        ta.tableDiags.push_back(
                            {Severity::kWarning, kNoPc,
                             DiagCode::kCallbackCycle,
                             "prefetch callback cycle " + path +
                                 ": each fill retriggers the chain "
                                 "unconditionally"});
                    }
                } else {
                    color[f.node] = kBlack;
                    stack.pop_back();
                }
            }
        }
    }

    // The paper's PPU instruction store is 4 KiB.
    constexpr std::size_t kCodeBudgetBytes = 4096;
    if (table.totalBytes() > kCodeBudgetBytes)
        ta.tableDiags.push_back(
            {Severity::kWarning, kNoPc, DiagCode::kCodeBudgetExceeded,
             "kernel store is " + std::to_string(table.totalBytes()) +
                 " bytes, over the " + std::to_string(kCodeBudgetBytes) +
                 "-byte instruction-cache budget"});

    return ta;
}

void
verifyOrThrow(const Kernel &k)
{
    const KernelAnalysis ka = analyzeKernel(k);
    if (!ka.hasErrors())
        return;
    std::string msg = "kernel '" + k.name + "' failed verification:";
    for (const Diag &d : ka.diags) {
        if (d.severity != Severity::kError)
            continue;
        msg += "\n  ";
        msg += formatDiag(d);
    }
    throw std::invalid_argument(msg);
}

} // namespace epf::analysis

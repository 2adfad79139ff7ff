/**
 * @file
 * Abstract-interpretation dataflow over a PPU kernel's CFG.
 *
 * A forward fixpoint computes, for every reachable pc, the set of
 * values each register can hold when the instruction executes.  Two
 * abstract domains run in lockstep and refine each other:
 *
 *  - **intervals**: a signed i64 range [lo, hi] per register, with
 *    threshold widening (0, then the i64 extremes) at loop heads so
 *    the watchdog-loop kernels reach a fixpoint, followed by two
 *    narrowing sweeps to recover loop-exit precision;
 *  - **known-bits**: a (mask, value) pair per register tracking bits
 *    proven constant — the domain that sees through the and/andi +
 *    shli masking idioms the hash kernels use for bucket addressing.
 *
 * Branch edges refine operand states (beq intersects, blt/bge clamp
 * interval endpoints), and the same-register conditions (beq r,r) make
 * the dead edge infeasible outright.  Registers are zero at event
 * entry, so the entry state is exact, and every fact proven under the
 * default (nothing-assumed) context holds for any event.
 *
 * Consumers:
 *  - analyzeKernel() refines its per-pc trap facts (a div whose
 *    divisor interval excludes zero is proven trap-free) and derives
 *    the new warning families (out-of-region / degenerate prefetch
 *    target, dead assignment, constant branch);
 *  - the tier-2 ISA fuzzer replays 10k programs instruction-by-
 *    instruction against the computed intervals: every concrete
 *    register value must lie inside its abstract state, so any
 *    unsound transfer function fails loudly.
 */

#ifndef EPF_ISA_ANALYSIS_DATAFLOW_HPP
#define EPF_ISA_ANALYSIS_DATAFLOW_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "isa/analysis/cfg.hpp"
#include "isa/isa.hpp"

namespace epf::analysis
{

struct KernelContext; // verifier.hpp; carries the seeded value facts

/** A signed i64 value range.  lo > hi encodes the empty set. */
struct Interval
{
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();

    static Interval top() { return {}; }
    static Interval constant(std::int64_t v) { return {v, v}; }
    static Interval range(std::int64_t l, std::int64_t h) { return {l, h}; }
    static Interval empty() { return {1, 0}; }

    bool isEmpty() const { return lo > hi; }
    bool isTop() const
    {
        return lo == std::numeric_limits<std::int64_t>::min() &&
               hi == std::numeric_limits<std::int64_t>::max();
    }
    bool isConst() const { return lo == hi; }
    bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

    bool operator==(const Interval &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * Bits proven constant: bit i is known iff mask bit i is set, and then
 * holds value bit i.  Invariant: (val & ~mask) == 0.
 */
struct KnownBits
{
    std::uint64_t mask = 0;
    std::uint64_t val = 0;

    static KnownBits top() { return {}; }
    static KnownBits constant(std::uint64_t v) { return {~0ull, v}; }

    /** Could a register holding this state contain raw value @p v? */
    bool admits(std::uint64_t v) const { return (v & mask) == val; }
    bool isConst() const { return mask == ~0ull; }
    /** Low bits proven zero (e.g. 3 after shli #3). */
    unsigned trailingZeros() const;

    bool operator==(const KnownBits &o) const
    {
        return mask == o.mask && val == o.val;
    }
};

/** One register's abstract value: both domains, kept consistent. */
struct AbsValue
{
    Interval iv;
    KnownBits kb;

    static AbsValue top() { return {}; }
    static AbsValue constant(std::int64_t v)
    {
        return {Interval::constant(v),
                KnownBits::constant(static_cast<std::uint64_t>(v))};
    }

    /** Could the register hold raw (two's-complement) value @p v? */
    bool contains(std::uint64_t v) const
    {
        return iv.contains(static_cast<std::int64_t>(v)) && kb.admits(v);
    }
    std::optional<std::int64_t> asConst() const
    {
        if (iv.isConst())
            return iv.lo;
        return std::nullopt;
    }

    bool operator==(const AbsValue &o) const
    {
        return iv == o.iv && kb == o.kb;
    }
};

/** Abstract register file at one program point. */
struct RegState
{
    /** False when the point is proven unreachable (dead branch edge,
     *  code after a proven trap, or CFG-unreachable). */
    bool feasible = false;
    std::array<AbsValue, kPpuRegs> reg{};

    bool operator==(const RegState &o) const
    {
        if (feasible != o.feasible)
            return false;
        if (!feasible)
            return true;
        return reg == o.reg;
    }
};

/** Everything the fixpoint proved, per pc. */
struct DataflowResult
{
    /** Abstract state on entry to each instruction (code.size()
     *  entries; in[pc].feasible == false for dead pcs). */
    std::vector<RegState> in;
    /** Refined may-trap: can the instruction trap when it executes?
     *  Strictly no weaker than mayTrap(in, ctx) — a div whose divisor
     *  state excludes 0 (and the INT64_MIN / -1 pair) clears it. */
    std::vector<std::uint8_t> mayTrapPc;
    /** Refined always-trap: proven to trap on every execution (e.g. a
     *  divisor interval pinned to [0, 0]). */
    std::vector<std::uint8_t> alwaysTrapsPc;
    /** The fixpoint terminated normally.  When false every state was
     *  forced to top (still sound, no precision). */
    bool converged = false;

    /**
     * The exported region oracle: instruction at @p pc can never trap
     * when it executes (infeasible pcs never execute, so they qualify
     * vacuously).  Out-of-range pcs are not trap-free — they are the
     * boundary trap.
     */
    bool provenTrapFree(std::size_t pc) const
    {
        return pc < in.size() && (!in[pc].feasible || !mayTrapPc[pc]);
    }
};

/** What the value analysis proves about a conditional branch. */
enum class BranchOutcome
{
    kUnknown,     ///< both arms feasible (or not a cond branch)
    kAlwaysTaken, ///< the condition holds on every execution
    kNeverTaken,  ///< the condition fails on every execution
};

/**
 * Decide a conditional branch at a point whose entry state is @p s
 * (covers the same-register identities beq r,r / blt r,r and every
 * case where one arm's operand constraints are contradictory).
 */
BranchOutcome branchOutcome(const Instr &in, const RegState &s);

/**
 * Run the forward fixpoint over @p cfg.  @p ctx seeds the entry facts
 * (vaddr range, known global-register values); the default context
 * assumes nothing, which makes every resulting fact valid for every
 * event.  @p cfg must have been built from @p code (with the same
 * always-trap terminators analyzeKernel uses).
 */
DataflowResult analyzeDataflow(const std::vector<Instr> &code,
                               const Cfg &cfg, const KernelContext &ctx);

/** Convenience form: builds the trap-terminated CFG itself. */
DataflowResult analyzeDataflow(const Kernel &k, const KernelContext &ctx);

} // namespace epf::analysis

#endif // EPF_ISA_ANALYSIS_DATAFLOW_HPP

/**
 * @file
 * The PPU kernel verifier: static analysis over a kernel's CFG.
 *
 * Four pass families, all running on the Cfg substrate:
 *
 *  - control-flow validity: branch targets in range, no fall-through
 *    past the last instruction, unreachable-code detection;
 *  - def-use dataflow: registers read before any definition on some
 *    path (must-assigned analysis; observation ops are implicit defs);
 *  - static trap proofs: instructions that trap every time they
 *    execute, both context-free facts (divi #0, out-of-range gread /
 *    lookahead index) and context-dependent ones (ldline on a trigger
 *    kind known to carry no line, lookahead index vs the installed
 *    filter count);
 *  - cost bounds: exact worst-case cycles and emit count for acyclic
 *    kernels, kMaxKernelSteps watchdog classification otherwise.
 *
 * analyzeTable() adds the store-wide checks: prefetch.cb resolution,
 * callback-graph cycles (event-storm lint) and the paper's 4 KiB code
 * budget.
 */

#ifndef EPF_ISA_ANALYSIS_VERIFIER_HPP
#define EPF_ISA_ANALYSIS_VERIFIER_HPP

#include <functional>
#include <vector>

#include "isa/analysis/cfg.hpp"
#include "isa/analysis/diag.hpp"
#include "isa/isa.hpp"

namespace epf::analysis
{

/**
 * What the analyzer may assume about the events that will trigger a
 * kernel.  The default assumes nothing: only context-free facts hold.
 */
struct KernelContext
{
    /** Does the triggering event carry cache-line data? */
    enum class Line
    {
        kUnknown, ///< could be either (no ldline facts)
        kAlways,  ///< fill / callback events: ldline never traps
        kNever,   ///< demand-address events: ldline always traps
    };

    Line line = Line::kUnknown;

    /**
     * True (the default) when the prefetcher's global register file is
     * known to be wired up, as it always is under the PPF; false means
     * "not known present", so in-range gread may trap but is not
     * proven to.
     */
    bool globalsPresent = true;

    /** Installed lookahead filter entries, or -1 when unknown. */
    int lookaheadEntries = -1;
};

/**
 * Context-free always-trap fact for one instruction: true when the
 * instruction traps on every execution regardless of the triggering
 * event (divi #0; gread index outside [0, kGlobalRegs); negative
 * lookahead index).  These instructions terminate their CFG block.
 */
bool alwaysTraps(const Instr &in);

/** Always-trap fact under @p ctx (adds ldline / lookahead-count facts). */
bool alwaysTraps(const Instr &in, const KernelContext &ctx);

/**
 * True when the instruction can trap on *some* execution under @p ctx
 * (includes every alwaysTraps case plus dynamic conditions: div by a
 * register value, divi #-1 overflow, ldline with unknown line kind...).
 */
bool mayTrap(const Instr &in, const KernelContext &ctx);

/** Exact execution weight of one basic block. */
struct BlockWeight
{
    /** Architectural cycles charged when the block runs start to end
     *  (1 cycle per executed instruction, including a trapping
     *  terminator's charged fetch; the boundary trap charges none). */
    std::uint32_t cycles = 0;
    /** Prefetches emitted when the block runs start to end. */
    std::uint32_t emits = 0;
};

/**
 * Per-block weights over @p cfg (one entry per block, indexed by block
 * id).  Exact for straight-line execution — these are the edge weights
 * of the verifier's longest-path cost pass.
 */
std::vector<BlockWeight> blockWeights(const Cfg &cfg,
                                      const std::vector<Instr> &code);

/** Everything the analyzer proved about one kernel. */
struct KernelAnalysis
{
    std::vector<Diag> diags;

    /** No reachable instruction can trap and no exit leaves the code
     *  range: the kernel halts (or hits the watchdog) on every event. */
    bool provenTrapFree = false;

    /** No cycle reachable from the entry. */
    bool acyclic = false;

    /**
     * Worst-case executed instructions per event.  Exact (a real CFG
     * path attains it) when acyclic; kMaxKernelSteps otherwise.
     */
    unsigned maxCycles = 0;

    /** Worst-case prefetch emissions per event; exact when acyclic. */
    unsigned maxEmits = 0;

    /** Per-pc reachability (code.size() entries): 1 when some path
     *  from the entry executes the instruction.  Consumed by the
     *  table-wide callback checks. */
    std::vector<std::uint8_t> reachablePc;

    bool hasErrors() const { return analysis::hasErrors(diags); }
};

/** Run every per-kernel pass. */
KernelAnalysis analyzeKernel(const Kernel &k, const KernelContext &ctx = {});

/** A whole kernel store, analyzed. */
struct TableAnalysis
{
    /** Per-kernel results, indexed by KernelId. */
    std::vector<KernelAnalysis> kernels;
    /** Store-wide findings (callback cycles, code budget). */
    std::vector<Diag> tableDiags;

    bool hasErrors() const;
    /** Total diag count across kernels and the table. */
    std::size_t diagCount() const;
};

/**
 * Analyze every kernel plus the table-wide properties.  @p ctxFor, when
 * provided, supplies the per-kernel event context (the PPF lint layer
 * derives it from the filter table and tag bindings).
 */
TableAnalysis
analyzeTable(const KernelTable &table,
             const std::function<KernelContext(KernelId)> &ctxFor = {});

/**
 * Throw std::invalid_argument (message = every formatted error) if
 * analyzeKernel(@p k) reports errors under a default context.  This is
 * the strict-mode gate KernelTable::add() applies.
 */
void verifyOrThrow(const Kernel &k);

} // namespace epf::analysis

#endif // EPF_ISA_ANALYSIS_VERIFIER_HPP

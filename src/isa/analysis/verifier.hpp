/**
 * @file
 * The PPU kernel verifier: static analysis over a kernel's CFG.
 *
 * Three pass families, all running on the Cfg substrate:
 *
 *  - control-flow validity: branch targets in range, no fall-through
 *    past the last instruction, unreachable-code detection, and
 *    kMaxKernelSteps watchdog classification of kernels with loops;
 *  - def-use dataflow: registers read before any definition on some
 *    path (must-assigned analysis; observation ops are implicit defs);
 *  - static trap proofs: instructions that trap every time they
 *    execute, both context-free facts (divi #0, out-of-range gread /
 *    lookahead index) and context-dependent ones (ldline on a trigger
 *    kind known to carry no line, lookahead index vs the installed
 *    filter count).
 *
 * analyzeTable() adds the store-wide checks: prefetch.cb resolution,
 * callback-graph cycles (event-storm lint) and the paper's 4 KiB code
 * budget.
 */

#ifndef EPF_ISA_ANALYSIS_VERIFIER_HPP
#define EPF_ISA_ANALYSIS_VERIFIER_HPP

#include <cstdint>
#include <functional>
#include <vector>

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

/** Everything the analyzer proved about one kernel. */
struct KernelAnalysis
{
    std::vector<Diag> diags;

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

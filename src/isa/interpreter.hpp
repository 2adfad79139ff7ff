/**
 * @file
 * PPU kernel interpreter.
 *
 * Executes one event to completion at one instruction per cycle.  Any
 * trap (division by zero or signed-overflowing INT64_MIN/-1 division,
 * runaway execution, reading line data from a load observation that
 * carries none) terminates the event, exactly as the paper specifies
 * for PPU exceptions: prefetching is best-effort, so the event is
 * simply abandoned.
 *
 * This switch-dispatched interpreter is both the reference semantics of
 * the ISA and the only executor the simulator runs: every PPU event
 * interprets its kernel straight from the KernelTable, so a patched
 * kernel takes effect on the next event.  Kernel execution is a small
 * share of simulation host time, so the executor stays a plain switch
 * loop over the raw instructions.
 */

#ifndef EPF_ISA_INTERPRETER_HPP
#define EPF_ISA_INTERPRETER_HPP

#include <cstdint>
#include <vector>

#include "isa/isa.hpp"
#include "mem/guest_memory.hpp"
#include "sim/types.hpp"

namespace epf
{

/** Inputs available to one event execution. */
struct EventContext
{
    /** Virtual address that triggered the event. */
    Addr vaddr = 0;
    /** True if the observation carries the fetched cache line. */
    bool hasLine = false;
    /** The observed line (prefetch completions only). */
    LineData line{};
    /** Shared prefetcher global registers. */
    const std::uint64_t *globalRegs = nullptr;
    /** Per-filter-entry EWMA lookahead values (elements). */
    const std::uint64_t *lookahead = nullptr;
    unsigned lookaheadEntries = 0;
};

/** A prefetch emitted by a kernel. */
struct PrefetchEmit
{
    Addr vaddr = 0;
    std::int32_t tag = -1;
    KernelId cbKernel = kNoKernel;
};

/** Why execution stopped. */
enum class ExitReason
{
    kHalted,
    kTrapped,
    kStepLimit,
};

/** Outcome of executing one kernel. */
struct ExecResult
{
    ExitReason exit = ExitReason::kHalted;
    /** Instructions executed == PPU cycles consumed (1 IPC, in-order). */
    std::uint32_t cycles = 0;
    /** Prefetches emitted. */
    std::uint32_t emitted = 0;
};

/** Stateless executor of PPU kernels. */
class Interpreter
{
  public:
    /**
     * Run @p kernel against @p ctx.
     * @param sink  every prefetch the kernel issues is appended here
     *              (null discards them)
     * @param max_steps watchdog bound
     * @param regs_out  when non-null, receives the kPpuRegs final
     *                  register values at exit (any exit reason)
     */
    static ExecResult run(const Kernel &kernel, const EventContext &ctx,
                          std::vector<PrefetchEmit> *sink,
                          unsigned max_steps = kMaxKernelSteps,
                          std::uint64_t *regs_out = nullptr);
};

} // namespace epf

#endif // EPF_ISA_INTERPRETER_HPP

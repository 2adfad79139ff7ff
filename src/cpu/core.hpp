/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * Models the Table 1 main core: 3-wide, 40-entry ROB, 16-entry load
 * queue, 32-entry store queue, running at 3.2 GHz.  Ops dispatch in
 * order, loads issue out of order once their address dependences resolve
 * (subject to LQ capacity, two LSU ports and L1 MSHR backpressure), and
 * ops commit in order.  This reproduces the mechanism the paper's
 * motivation rests on: dependent loads serialise; independent loads
 * overlap only within the small window.
 */

#ifndef EPF_CPU_CORE_HPP
#define EPF_CPU_CORE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/generator.hpp"
#include "cpu/micro_op.hpp"
#include "mem/core_port.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/object_pool.hpp"
#include "sim/ring_buffer.hpp"

namespace epf
{

/**
 * Bit position where a core's id is OR-ed into the stream ids it sends
 * to the memory system (0 for core 0, so single-core traces are
 * unchanged).  Workload-generated stream ids stay far below bit 20.
 */
inline constexpr int kStreamIdCoreShift = 20;

/** Main-core configuration (Table 1 values by default). */
struct CoreParams
{
    unsigned width = 3;     ///< dispatch/commit width (instructions)
    unsigned robEntries = 40;
    unsigned lqEntries = 16;
    unsigned sqEntries = 32;
    unsigned lsuPorts = 2;  ///< loads issued per cycle
    Tick period = 5;        ///< 3.2 GHz on the 62.5 ps grid
    /** Front-end refill after a mispredicted branch resolves. */
    unsigned mispredictPenalty = 12;
};

/**
 * Observer of the core's fetch stream.  onMicroOp() fires once per
 * micro-op, at the tick the op is pulled from the trace generator —
 * i.e. after the generator's host-side work for that op has run, which
 * is the instant any data it mutated becomes architecturally visible.
 * The trace capture subsystem records the stream through this hook.
 */
class MicroOpSink
{
  public:
    virtual ~MicroOpSink() = default;
    virtual void onMicroOp(Tick now, const MicroOp &op) = 0;
};

/** The out-of-order core. */
class Core
{
  public:
    struct Stats
    {
        std::uint64_t cycles = 0;
        std::uint64_t instrs = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t swPrefetches = 0;
        std::uint64_t configOps = 0;
        std::uint64_t branchMisses = 0;
        /** Cycles in which nothing committed while the ROB was non-empty. */
        std::uint64_t commitStallCycles = 0;
        /** Cycles dispatch stalled on a full ROB. */
        std::uint64_t robFullCycles = 0;
    };

    /**
     * @param mem     the core's private memory port
     * @param coreId  position of this core in a multi-core machine.
     *                Stream ids (the PC proxies prefetchers train on)
     *                are namespaced per core: core 0 passes them
     *                through unchanged, core N tags bit 20+ so two
     *                cores' streams can never alias in shared traces
     *                or logs.
     */
    Core(EventQueue &eq, const CoreParams &params, CorePort &mem,
         unsigned coreId = 0);

    /**
     * Run @p trace to completion.  @p on_done fires on the cycle the last
     * op commits.  Only one run may be active at a time.  Value ids
     * belong to one trace, so a run starts with none of them ready.
     */
    void run(Generator<MicroOp> trace, std::function<void()> on_done);

    const Stats &stats() const { return stats_; }
    const CoreParams &params() const { return p_; }
    unsigned coreId() const { return coreId_; }

    /** Attach (or detach with nullptr) a fetch-stream observer. */
    void setFetchSink(MicroOpSink *sink) { fetchSink_ = sink; }

  private:
    struct RobEntry
    {
        MicroOp op;
        bool complete = false;
        /**
         * Dependences whose values have not arrived: one per unready
         * element of op.deps (so deps = {v, v} counts v twice).  The
         * entry joins execQ_ or issueQ_ when this reaches zero.
         */
        std::uint8_t unready = 0;
        std::uint64_t seq = 0;
    };

    /** An entry blocked on @ref value (one per unready dependence). */
    struct Wait
    {
        ValueId value = 0;
        std::uint32_t next = 0; ///< next Wait in its list (kNoWait ends)
        RobEntry *entry = nullptr;
    };
    static constexpr std::uint32_t kNoWait = ~std::uint32_t{0};

    /** One simulated core cycle. */
    void tick();

    /** Each phase reports whether it made progress this cycle. */
    bool commit();
    bool completeWork();
    bool issueMemOps();
    bool dispatch();

    /**
     * Send memory op @p e if it can issue this cycle (a load also needs
     * one of @p load_ports, which it consumes); false if it must wait.
     */
    bool tryIssue(RobEntry *e, unsigned &load_ports);

    /**
     * Re-arm the cycle loop after a memory completion.  The core goes to
     * sleep when a cycle makes no progress (every op is waiting on the
     * memory system); this keeps long stalls cheap to simulate without
     * changing timing: the next state change can only be triggered by a
     * completion, which calls wake().
     */
    void wake();

    /**
     * Broadcast value @p id: wake every entry waiting on it.  The first
     * broadcast of an id is the one that counts; values stay ready for
     * the rest of the run.
     */
    void markValueReady(ValueId id);

    /**
     * Register a Wait for each dependence of @p e whose value has not
     * arrived, set e->unready, and return it.
     */
    unsigned waitForDeps(RobEntry *e);

    /** @p e has no unready dependence left: queue it to execute or issue. */
    void makeReady(RobEntry *e);

    /** Acquire a pooled entry, initialise it from @p op, append to rob_. */
    RobEntry *newRobEntry(MicroOp op);

    /** @p sid namespaced with this core's id (identity on core 0). */
    int nsStream(int sid) const { return sid | streamNamespace_; }

    EventQueue &eq_;
    CoreParams p_;
    CorePort &mem_;
    unsigned coreId_ = 0;
    /** OR-mask applied to every stream id (0 for core 0). */
    int streamNamespace_ = 0;

    Generator<MicroOp> trace_;
    bool traceValid_ = false;  ///< a fetched op is waiting in trace_.value()
    bool traceDone_ = false;
    std::function<void()> onDone_;
    MicroOpSink *fetchSink_ = nullptr;

    /**
     * The reorder buffer: a FIFO ring of pooled entries.  Entries are
     * pool-backed so completion callbacks can hold a stable RobEntry*
     * across the entry's whole flight, and the ring reuses one buffer
     * forever — dispatching allocates nothing once the pool is warm.
     */
    Ring<RobEntry *> rob_;
    ObjectPool<RobEntry> robPool_;
    /** ROB occupancy in *instructions* (a 40-entry ROB holds 40). */
    unsigned robInstrs_ = 0;
    unsigned lqUsed_ = 0;
    unsigned sqUsed_ = 0;
    /** Instruction-dispatch budget carried across cycles for wide Work ops. */
    std::uint32_t workRemaining_ = 0;

    /**
     * The ROB entries whose dependences have all arrived, in program
     * order.  execQ_ holds the incomplete Work and BranchMiss entries,
     * all of which completeWork() finishes on its next pass; issueQ_
     * holds the unissued Load, Store and SwPrefetch entries, which
     * issueMemOps() sends as ports and queue slots allow.  Dispatch
     * appends an entry whose values are ready; markValueReady() inserts
     * the rest at their place in program order once their last value
     * arrives.  So a pass acts on the same entries in the same order as
     * a walk of the whole ROB that skips entries still waiting.
     *
     * An entry woken during an execute pass joins that pass only if it
     * is younger than the entry whose value woke it, since a walk in
     * program order would reach it later in the same pass; an older one
     * waits in execNext_ and completes on the next cycle, as it would
     * on the walk's next pass.
     */
    std::vector<RobEntry *> execQ_;
    std::vector<RobEntry *> issueQ_;
    std::vector<RobEntry *> execNext_;
    /** seq of the entry completeWork() is finishing; 0 between passes. */
    std::uint64_t execAt_ = 0;

    /**
     * Entries blocked on values: a pool of Waits (two per ROB entry at
     * most, unless a trace holds zero-instruction ops), each threaded
     * into a short list by the low bits of its value id (waitHeads_) or
     * onto the free list (freeWait_).  Waits are keyed by value id
     * rather than by producing entry because a trace file may have an
     * older op wait on a value a younger op produces, or several ops
     * produce one id; the first broadcast wakes them.
     */
    std::vector<Wait> waits_;
    std::vector<std::uint32_t> waitHeads_;
    std::uint32_t freeWait_ = kNoWait;
    std::vector<bool> valueReady_;
    std::uint64_t seq_ = 0;
    bool running_ = false;
    bool sleeping_ = false;
    /** An unresolved mispredicted branch is blocking dispatch. */
    bool branchPending_ = false;
    /** Front-end refill cycles left after a branch resolved. */
    unsigned refillLeft_ = 0;
    /** Cycles skipped while asleep (accounted into stats_.cycles). */
    Tick sleepFrom_ = 0;

    Stats stats_;
};

} // namespace epf

#endif // EPF_CPU_CORE_HPP

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
     * op commits.  Only one run may be active at a time.
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
        std::uint64_t seq = 0;
    };

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

    bool depsReady(const MicroOp &op) const;
    void markValueReady(ValueId id);

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
     * The ROB entries each scan may act on, in program order.  execQ_
     * holds the incomplete Work and BranchMiss entries completeWork()
     * may finish; issueQ_ holds the unissued Load, Store and SwPrefetch
     * entries issueMemOps() may send.  Dispatch appends to them and each
     * scan compacts them in place, so a cycle visits the same entries in
     * the same order as a walk of the whole ROB, and no others.
     */
    std::vector<RobEntry *> execQ_;
    std::vector<RobEntry *> issueQ_;

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

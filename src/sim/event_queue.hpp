/**
 * @file
 * Deterministic discrete-event queue.
 *
 * All timed behaviour in the simulator — cache latencies, DRAM bank
 * timing, core cycles, PPU execution — is expressed as events on a single
 * queue.  Events scheduled for the same tick execute in insertion order,
 * which keeps runs bit-for-bit reproducible.
 *
 * Engine internals (hot path, see bench/micro_components.cpp):
 *
 *  - Callbacks are @ref SmallFunction, not std::function: closures up to
 *    48 bytes live inline in the slot pool, larger ones come from a
 *    thread-local slab, so scheduling never calls malloc in steady state.
 *  - Short-delay events — the bulk of the traffic: core ticks, cache hit
 *    latencies, arbitration slots, PPU dispatch — go into a calendar
 *    wheel of per-tick FIFO buckets covering the next kWheelTicks ticks,
 *    bypassing the heap entirely.  A bitmap scan finds the next occupied
 *    bucket in a handful of word operations.
 *  - Only far-future events (DRAM row conflicts, slow PPU clocks) use
 *    the implicit 4-ary heap of 24-byte keys {when, seq, slot}; sifts
 *    move keys only, never callbacks.  Callbacks sit in an indexed slot
 *    pool and move exactly twice: in at schedule, out at execution.
 *  - When time advances to a tick, every key at that tick is drained into
 *    a FIFO ring first; follow-on events scheduled *at the current tick*
 *    (the hierarchy's ubiquitous scheduleIn(0)) append to that ring in
 *    O(1).  run() drains the ring in one tight pass per tick instead of
 *    re-entering runOne() per event.
 *
 * Ordering guarantees (the drain contract):
 *
 *  1. Events at different ticks run in tick order.
 *  2. Events at the same tick run in schedule-call order, regardless of
 *     which structure (ring, wheel, heap) carried them.
 */

#ifndef EPF_SIM_EVENT_QUEUE_HPP
#define EPF_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/ring_buffer.hpp"
#include "sim/small_function.hpp"
#include "sim/types.hpp"

namespace epf
{

/**
 * A time-ordered queue of callbacks.
 *
 * The queue owns simulated time: @ref now() advances only as events are
 * executed.  Scheduling in the past is a programming error and is clamped
 * to "now" (with an assert in debug builds).
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void()>;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute tick @p when. */
    void schedule(Tick when, Callback fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleIn(Tick delay, Callback fn) { schedule(now_ + delay, std::move(fn)); }

    /** True if no events remain. */
    bool empty() const
    {
        return current_.empty() && heap_.empty() && wheelCount_ == 0;
    }

    /** Tick of the next pending event (kTickMax if none). */
    Tick
    nextEventTick() const
    {
        if (!current_.empty())
            return now_;
        const Tick ht = heap_.empty() ? kTickMax : heap_[0].when;
        const Tick wt = nextWheelTick();
        return ht < wt ? ht : wt;
    }

    /**
     * Execute the single oldest event.
     * @return false if the queue was empty.
     */
    bool runOne();

    /** Run until the queue drains or @p limit events have executed. */
    void run(std::uint64_t limit = UINT64_MAX);

    /** Run events with time <= @p until (inclusive). */
    void runUntil(Tick until);

    /** Total events executed so far (for stats and runaway detection). */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Heap/wheel key: ordering data plus the owning callback slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Calendar-wheel horizon: delays in [1, kWheelTicks) take a bucket
     *  instead of the heap.  1024 ticks (64 ns) covers every periodic
     *  clock and cache latency in the machine; only DRAM tails and slow
     *  PPU completions reach the heap. */
    static constexpr std::size_t kWheelTicks = 1024;
    static constexpr std::size_t kWheelWords = kWheelTicks / 64;

    /** Strict ordering: earlier tick first, then insertion order. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::uint32_t takeSlot(Callback &&fn);
    void heapPush(Key k);
    Key heapPopTop();

    /** Next occupied wheel tick strictly after now_ (kTickMax if none). */
    Tick nextWheelTick() const;

    /**
     * Advance now_ to the next pending tick and drain every event at
     * that tick into the FIFO ring, merging wheel and heap sources in
     * seq order.  Returns false when nothing is pending.
     */
    bool advance();

    /** Pop the ring front and run it (the per-event drain step). */
    void execFront();

    /** Implicit 4-ary min-heap of keys (children of i: 4i+1 .. 4i+4). */
    std::vector<Key> heap_;
    /** Per-tick buckets for the near future; bucket = when % kWheelTicks.
     *  Each bucket holds at most one tick's events at a time (the
     *  horizon guarantees ticks kWheelTicks apart never coexist). */
    std::vector<std::vector<Key>> wheel_;
    /** Occupancy bitmap over wheel_ buckets. */
    std::uint64_t wheelBits_[kWheelWords] = {};
    std::size_t wheelCount_ = 0;
    /** Callback storage indexed by Key::slot. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** Slots waiting to run at the current tick, in FIFO order. */
    Ring<std::uint32_t> current_;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace epf

#endif // EPF_SIM_EVENT_QUEUE_HPP

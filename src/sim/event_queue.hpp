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
 *  - Callbacks are @ref SmallFunction, not std::function: every closure
 *    fits its 48 inline bytes and lives in its node, so scheduling never
 *    calls malloc in steady state.
 *  - A pending event is one 64-byte node {next, callback} taken from a
 *    free list over fixed-size chunks.  Chunks are never moved or freed
 *    before the queue is destroyed, so schedule() constructs the closure
 *    directly in its node and the drain loop runs it where it sits: a
 *    closure is built once and never moved by the queue.
 *  - Short-delay events — the bulk of the traffic: core ticks, cache hit
 *    latencies, arbitration slots, PPU dispatch — are appended to a
 *    calendar wheel of per-tick intrusive FIFO lists covering the next
 *    kWheelTicks ticks, bypassing the heap entirely.  A bitmap scan
 *    finds the next occupied bucket in a handful of word operations.
 *  - Only far-future events (DRAM row conflicts, slow PPU clocks) use
 *    the implicit 4-ary heap of 24-byte keys {when, seq, node}; sifts
 *    move keys only, never callbacks.
 *  - When time advances to a tick, the heap's nodes at that tick are
 *    appended to the same-tick FIFO list and the tick's wheel bucket is
 *    spliced behind them in O(1); follow-on events scheduled *at the
 *    current tick* (the hierarchy's ubiquitous scheduleIn(0)) append to
 *    that list in O(1).  run() drains the list in one tight pass per
 *    tick instead of re-entering runOne() per event.
 *
 * Ordering guarantees (the drain contract):
 *
 *  1. Events at different ticks run in tick order.
 *  2. Events at the same tick run in schedule-call order, regardless of
 *     which structure (same-tick list, wheel, heap) carried them.
 */

#ifndef EPF_SIM_EVENT_QUEUE_HPP
#define EPF_SIM_EVENT_QUEUE_HPP

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_function.hpp"
#include "sim/types.hpp"

namespace epf
{

/**
 * A time-ordered queue of callbacks.
 *
 * The queue owns simulated time: @ref now() advances only as events are
 * executed.  An event scheduled for a past tick is clamped to "now".
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute tick @p when.  The callable is
     * constructed in place in its node; a Callback is moved in once and
     * must be passed as an rvalue.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        static_assert(!std::is_same_v<std::decay_t<F>, Callback> ||
                          std::is_same_v<F, Callback>,
                      "schedule a Callback with std::move");
        if (free_ == nullptr)
            grow();
        Node *n = free_;
        n->fn.emplace(std::forward<F>(fn));
        assert(n->fn);
        free_ = n->next;
        insert(when, n);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /** True if no events remain. */
    bool empty() const
    {
        return current_.head == nullptr && heap_.empty() && wheelCount_ == 0;
    }

    /** Tick of the next pending event (kTickMax if none). */
    Tick
    nextEventTick() const
    {
        if (current_.head != nullptr)
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
    /** A pending event (64 bytes).  Nodes live in chunks that never
     *  move, so a callback runs in place even while it schedules more
     *  events. */
    struct Node
    {
        Node *next;
        Callback fn;
    };

    /** An intrusive FIFO list of nodes; tail is meaningful only while
     *  head is non-null. */
    struct List
    {
        Node *head = nullptr;
        Node *tail = nullptr;

        void
        push(Node *n)
        {
            n->next = nullptr;
            if (head == nullptr)
                head = n;
            else
                tail->next = n;
            tail = n;
        }

        /** Move all of @p other's nodes behind ours in O(1). */
        void
        splice(List &other)
        {
            if (head == nullptr)
                head = other.head;
            else
                tail->next = other.head;
            tail = other.tail;
            other.head = nullptr;
        }
    };

    /** Heap key: ordering data plus the node it orders. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        Node *node;
    };

    /** Calendar-wheel horizon: delays in [1, kWheelTicks) take a bucket
     *  instead of the heap.  1024 ticks (64 ns) covers every periodic
     *  clock and cache latency in the machine; only DRAM tails and slow
     *  PPU completions reach the heap. */
    static constexpr std::size_t kWheelTicks = 1024;
    static constexpr std::size_t kWheelWords = kWheelTicks / 64;
    /** Nodes per arena chunk (64 KiB). */
    static constexpr std::size_t kChunkNodes = 1024;

    /** Strict ordering: earlier tick first, then insertion order. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Add a chunk of nodes to the free list. */
    void grow();
    /** Link a node whose callback is set into the structure for @p when. */
    void insert(Tick when, Node *n);
    void heapPush(Key k);
    Key heapPopTop();

    /** Next occupied wheel tick strictly after now_ (kTickMax if none). */
    Tick nextWheelTick() const;

    /**
     * Advance now_ to the next pending tick and move every event at
     * that tick onto the same-tick list, heap nodes first, then the
     * wheel bucket.  Returns false when nothing is pending.
     */
    bool advance();

    /** Unlink the same-tick list's front node and run it in place (the
     *  per-event drain step). */
    void execFront();

    /** Implicit 4-ary min-heap of keys (children of i: 4i+1 .. 4i+4). */
    std::vector<Key> heap_;
    /** Per-tick lists for the near future; bucket = when % kWheelTicks.
     *  Each bucket holds at most one tick's events at a time (the
     *  horizon guarantees ticks kWheelTicks apart never coexist). */
    List wheel_[kWheelTicks];
    /** Occupancy bitmap over wheel_ buckets. */
    std::uint64_t wheelBits_[kWheelWords] = {};
    /** Number of occupied wheel buckets. */
    std::size_t wheelCount_ = 0;
    /** Events waiting to run at the current tick, in FIFO order. */
    List current_;
    /** Node arena.  Destroying a chunk destroys its pending callbacks. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace epf

#endif // EPF_SIM_EVENT_QUEUE_HPP

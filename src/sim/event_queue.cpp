#include "sim/event_queue.hpp"

#include <bit>

namespace epf
{

void
EventQueue::grow()
{
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node *chunk = chunks_.back().get();
    for (std::size_t i = 0; i + 1 < kChunkNodes; ++i)
        chunk[i].next = &chunk[i + 1];
    chunk[kChunkNodes - 1].next = free_;
    free_ = chunk;
}

void
EventQueue::insert(Tick when, Node *n)
{
    const std::uint64_t seq = seq_++;
    if (when <= now_) {
        // Clamp: events may not run in the past.  Same-tick events join
        // the FIFO drain list directly — everything already drained (or
        // running) carries a smaller seq, so FIFO order is preserved
        // without touching the heap.
        current_.push(n);
        return;
    }
    if (when - now_ < kWheelTicks) {
        // Near future: append to the tick's wheel bucket.  Appends are
        // in seq order by construction, and the horizon guarantees the
        // bucket holds no other tick's events.
        const std::size_t b =
            static_cast<std::size_t>(when & (kWheelTicks - 1));
        List &bucket = wheel_[b];
        if (bucket.head == nullptr) {
            wheelBits_[b >> 6] |= 1ULL << (b & 63);
            ++wheelCount_;
        }
        bucket.push(n);
        return;
    }
    heapPush(Key{when, seq, n});
}

void
EventQueue::heapPush(Key k)
{
    // Hole percolation: shift parents down, place the key once.
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(k, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = k;
}

EventQueue::Key
EventQueue::heapPopTop()
{
    assert(!heap_.empty());
    const Key top = heap_[0];
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        // Sift the former last element down from the root.
        std::size_t i = 0;
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first_child = 4 * i + 1;
            if (first_child >= n)
                break;
            std::size_t best = first_child;
            const std::size_t last_child =
                first_child + 4 <= n ? first_child + 4 : n;
            for (std::size_t c = first_child + 1; c < last_child; ++c) {
                if (before(heap_[c], heap_[best]))
                    best = c;
            }
            if (!before(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    return top;
}

Tick
EventQueue::nextWheelTick() const
{
    if (wheelCount_ == 0)
        return kTickMax;
    // Scan the occupancy bitmap from the bucket of now_+1, wrapping.
    // Bucket indices met in scan order correspond to strictly
    // increasing ticks in (now_, now_ + kWheelTicks), so the first set
    // bit is the nearest occupied tick.
    const std::size_t start =
        static_cast<std::size_t>((now_ + 1) & (kWheelTicks - 1));
    std::size_t w = start >> 6;
    std::uint64_t word = wheelBits_[w] & (~0ULL << (start & 63));
    for (std::size_t i = 0; i <= kWheelWords; ++i) {
        if (word != 0) {
            const std::size_t b =
                (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
            return now_ + 1 + ((b - start) & (kWheelTicks - 1));
        }
        w = (w + 1) & (kWheelWords - 1);
        word = wheelBits_[w];
    }
    assert(false && "wheelCount_ > 0 but no bucket bit set");
    return kTickMax;
}

bool
EventQueue::advance()
{
    const Tick ht = heap_.empty() ? kTickMax : heap_[0].when;
    const Tick wt = nextWheelTick();
    if (ht == kTickMax && wt == kTickMax)
        return false;
    const Tick t = ht < wt ? ht : wt;
    assert(t > now_);
    assert(current_.head == nullptr);
    now_ = t;

    // When both sources hold events at t, every heap key at t was
    // scheduled at least kWheelTicks early — before any wheel node for
    // t could have been created — so all heap seqs precede all bucket
    // seqs: take the heap first, then splice the whole bucket behind.
    while (!heap_.empty() && heap_[0].when == t)
        current_.push(heapPopTop().node);
    if (wt == t) {
        const std::size_t b = static_cast<std::size_t>(t & (kWheelTicks - 1));
        wheelBits_[b >> 6] &= ~(1ULL << (b & 63));
        --wheelCount_;
        current_.splice(wheel_[b]);
    }
    return true;
}

void
EventQueue::execFront()
{
    // The node stays where it is while its callback runs: chunks never
    // move, and events the callback schedules take other nodes.  A
    // callback that throws leaves its node off every list; its closure
    // is destroyed with its chunk.
    Node *n = current_.head;
    current_.head = n->next;
    ++executed_;
    n->fn();
    n->fn.reset();
    n->next = free_;
    free_ = n;
}

bool
EventQueue::runOne()
{
    if (current_.head == nullptr && !advance())
        return false;
    execFront();
    return true;
}

void
EventQueue::run(std::uint64_t limit)
{
    // One time-advance per tick, then the whole FIFO list in a tight
    // loop (callbacks appending same-tick events extend the same pass).
    while (limit > 0) {
        if (current_.head == nullptr && !advance())
            return;
        do {
            execFront();
        } while (--limit > 0 && current_.head != nullptr);
    }
}

void
EventQueue::runUntil(Tick until)
{
    while (nextEventTick() <= until) {
        if (current_.head == nullptr)
            (void)advance();
        do {
            execFront();
        } while (current_.head != nullptr);
    }
    if (now_ < until)
        now_ = until;
}

} // namespace epf

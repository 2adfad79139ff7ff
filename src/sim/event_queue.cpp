#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>
#include <utility>

namespace epf
{

namespace
{
/** Warm-start capacities: sized so typical runs never grow mid-sim. */
constexpr std::size_t kInitialSlots = 1024;
constexpr std::size_t kInitialRing = 256;
} // namespace

EventQueue::EventQueue()
{
    heap_.reserve(kInitialSlots);
    slots_.reserve(kInitialSlots);
    freeSlots_.reserve(kInitialSlots);
    current_.reserve(kInitialRing);
    wheel_.resize(kWheelTicks);
}

std::uint32_t
EventQueue::takeSlot(Callback &&fn)
{
    if (!freeSlots_.empty()) {
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[s] = std::move(fn);
        return s;
    }
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::schedule(Tick when, Callback fn)
{
    assert(fn);
    if (when <= now_) {
        // Clamp: events may not run in the past.  Same-tick events join
        // the FIFO drain ring directly — everything already drained (or
        // running) carries a smaller seq, so FIFO order is preserved
        // without touching the heap.
        current_.push_back(takeSlot(std::move(fn)));
        ++seq_;
        return;
    }
    if (when - now_ < kWheelTicks) {
        // Near future: append to the tick's wheel bucket.  Appends are
        // in seq order by construction, and the horizon guarantees the
        // bucket holds no other tick's events.
        const std::size_t b =
            static_cast<std::size_t>(when & (kWheelTicks - 1));
        std::vector<Key> &bucket = wheel_[b];
        assert(bucket.empty() || bucket.back().when == when);
        bucket.push_back(Key{when, seq_++, takeSlot(std::move(fn))});
        wheelBits_[b >> 6] |= 1ULL << (b & 63);
        ++wheelCount_;
        return;
    }
    heapPush(Key{when, seq_++, takeSlot(std::move(fn))});
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
    now_ = t;

    if (wt == t) {
        const std::size_t b = static_cast<std::size_t>(t & (kWheelTicks - 1));
        std::vector<Key> &bucket = wheel_[b];
        wheelBits_[b >> 6] &= ~(1ULL << (b & 63));
        wheelCount_ -= bucket.size();
        if (ht == t) {
            // Both sources hold events at t.  Every heap key at t was
            // scheduled at least kWheelTicks early — before any wheel
            // key for t could have been created — so all heap seqs
            // precede all bucket seqs: drain heap first.
            do {
                current_.push_back(heapPopTop().slot);
            } while (!heap_.empty() && heap_[0].when == t);
        }
        for (const Key &k : bucket)
            current_.push_back(k.slot);
        bucket.clear();
    } else {
        do {
            current_.push_back(heapPopTop().slot);
        } while (!heap_.empty() && heap_[0].when == t);
    }
    return true;
}

void
EventQueue::execFront()
{
    const std::uint32_t s = current_.front();
    current_.pop_front();
    // Move the callback out before invoking: the callback may schedule,
    // which can grow or reuse the slot pool.
    Callback fn = std::move(slots_[s]);
    freeSlots_.push_back(s);
    ++executed_;
    fn();
}

bool
EventQueue::runOne()
{
    if (current_.empty() && !advance())
        return false;
    execFront();
    return true;
}

void
EventQueue::run(std::uint64_t limit)
{
    // One time-advance per tick, then the whole FIFO ring in a tight
    // loop (callbacks appending same-tick events extend the same pass).
    while (limit > 0) {
        if (current_.empty() && !advance())
            return;
        do {
            execFront();
        } while (--limit > 0 && !current_.empty());
    }
}

void
EventQueue::runUntil(Tick until)
{
    while (nextEventTick() <= until) {
        if (current_.empty())
            (void)advance();
        do {
            execFront();
        } while (!current_.empty());
    }
    if (now_ < until)
        now_ = until;
}

} // namespace epf

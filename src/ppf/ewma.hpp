/**
 * @file
 * Exponentially weighted moving average calculators (Section 4.5).
 *
 * EWMAs are trivially cheap in hardware (a subtract, shift and add); the
 * prefetcher uses them to time loop iterations (inter-access deltas on
 * "time source" filter entries) and prefetch chains (timed-start to
 * timed-end), whose ratio yields the dynamic lookahead distance.
 */

#ifndef EPF_PPF_EWMA_HPP
#define EPF_PPF_EWMA_HPP

#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace epf
{

/** One EWMA accumulator with a power-of-two smoothing factor. */
class Ewma
{
  public:
    /** @param shift smoothing: alpha = 1 / 2^shift.  Must be > 0 (a
     *  shift of 0 is no average at all, and breaks the rounding term). */
    explicit Ewma(unsigned shift = 3) : shift_(shift)
    {
        assert(shift_ > 0 && "Ewma shift must be positive");
    }

    /** Feed one sample. */
    void
    sample(std::uint64_t x)
    {
        if (!seeded_) {
            value_ = x;
            seeded_ = true;
            return;
        }
        // value += round((x - value) / 2^shift), in signed arithmetic.
        // The arithmetic shift alone rounds toward -inf, which biases
        // the average downward: under oscillating input, small negative
        // deltas step down while equally small positive deltas truncate
        // to zero.  Adding half the divisor first gives round-to-nearest
        // and keeps the equilibrium at the input mean.  (The shift_ == 0
        // branch keeps release builds — where the ctor assert compiles
        // out — well-defined: a zero shift divides by one, no rounding.)
        std::int64_t delta = static_cast<std::int64_t>(x) -
                             static_cast<std::int64_t>(value_);
        std::int64_t half =
            shift_ > 0 ? std::int64_t{1} << (shift_ - 1) : 0;
        value_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(value_) + ((delta + half) >> shift_));
    }

    /** Current average (0 until the first sample). */
    std::uint64_t value() const { return value_; }

    /** True once at least one sample has arrived. */
    bool seeded() const { return seeded_; }

  private:
    unsigned shift_;
    std::uint64_t value_ = 0;
    bool seeded_ = false;
};

/**
 * The per-filter-entry timing state: iteration-time EWMA (from observed
 * reads) and chain-latency EWMA (from timed prefetch chains), combined
 * into the lookahead distance PPU kernels read (Section 4.5).
 */
class LookaheadCalculator
{
  public:
    /**
     * @param shift   EWMA smoothing (alpha = 1/2^shift)
     * @param max_lookahead clamp on the distance, in elements
     * @param initial distance used before both EWMAs have samples
     * @param scale   safety margin: the paper notes the distance "must
     *                be overestimated relative to the EWMAs" (Sec. 7.1)
     *                because the out-of-order window issues demands
     *                ahead of the commit frontier
     */
    explicit LookaheadCalculator(unsigned shift = 3,
                                 std::uint64_t max_lookahead = 64,
                                 std::uint64_t initial = 4,
                                 std::uint64_t scale = 2)
        : iter_(shift), chain_(shift), max_(max_lookahead),
          initial_(initial), scale_(scale)
    {
    }

    /** An observed read hit this entry at @p now (inter-access timer). */
    void
    observeAccess(Tick now)
    {
        if (lastAccess_ != kTickMax && now > lastAccess_)
            iter_.sample(now - lastAccess_);
        lastAccess_ = now;
    }

    /** A timed chain originating here completed after @p latency. */
    void observeChain(Tick latency) { chain_.sample(latency); }

    /** Elements ahead to prefetch. */
    std::uint64_t
    lookahead() const
    {
        if (!iter_.seeded() || !chain_.seeded() || iter_.value() == 0)
            return initial_;
        std::uint64_t ratio =
            scale_ * ((chain_.value() + iter_.value() - 1) / iter_.value());
        if (ratio < 1)
            ratio = 1;
        if (ratio > max_)
            ratio = max_;
        return ratio;
    }

  private:
    Ewma iter_;
    Ewma chain_;
    Tick lastAccess_ = kTickMax;
    std::uint64_t max_;
    std::uint64_t initial_;
    std::uint64_t scale_;
};

} // namespace epf

#endif // EPF_PPF_EWMA_HPP

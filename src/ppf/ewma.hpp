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

#include <algorithm>
#include <cstdint>

#include "sim/types.hpp"

namespace epf
{

/** One EWMA accumulator with alpha = 1 / 2^kShift = 1/8. */
class Ewma
{
  public:
    static constexpr unsigned kShift = 3;

    /** Feed one sample. */
    void
    sample(std::uint64_t x)
    {
        if (!seeded_) {
            value_ = x;
            seeded_ = true;
            return;
        }
        // value += round((x - value) / 2^kShift), in signed arithmetic.
        // The arithmetic shift alone rounds toward -inf, which biases
        // the average downward: under oscillating input, small negative
        // deltas step down while equally small positive deltas truncate
        // to zero.  Adding half the divisor first gives round-to-nearest
        // and keeps the equilibrium at the input mean.
        constexpr std::int64_t kHalf = std::int64_t{1} << (kShift - 1);
        const std::int64_t delta = static_cast<std::int64_t>(x) -
                                   static_cast<std::int64_t>(value_);
        value_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(value_) + ((delta + kHalf) >> kShift));
    }

    /** Current average (0 until the first sample). */
    std::uint64_t value() const { return value_; }

    /** True once at least one sample has arrived. */
    bool seeded() const { return seeded_; }

  private:
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
    /** Distance used before both EWMAs have samples, in elements. */
    static constexpr std::uint64_t kInitial = 4;
    /** Clamp on the distance, in elements. */
    static constexpr std::uint64_t kMax = 32;
    /** Safety margin: the paper notes the distance "must be
     *  overestimated relative to the EWMAs" (Sec. 7.1) because the
     *  out-of-order window issues demands ahead of the commit
     *  frontier. */
    static constexpr std::uint64_t kScale = 2;

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
            return kInitial;
        const std::uint64_t ratio =
            kScale * ((chain_.value() + iter_.value() - 1) / iter_.value());
        return std::clamp(ratio, std::uint64_t{1}, kMax);
    }

  private:
    Ewma iter_;
    Ewma chain_;
    Tick lastAccess_ = kTickMax;
};

} // namespace epf

#endif // EPF_PPF_EWMA_HPP

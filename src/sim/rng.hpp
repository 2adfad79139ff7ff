/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generators and the page-table scatter function must be
 * reproducible across runs and platforms, so we use fixed xorshift /
 * splitmix implementations rather than std::mt19937 (whose distributions
 * are not portable).
 */

#ifndef EPF_SIM_RNG_HPP
#define EPF_SIM_RNG_HPP

#include <cstdint>

namespace epf
{

/** SplitMix64: good stateless mixing, used for hashing and PA scatter. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** xorshift128+ generator: fast, deterministic, seedable. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x2545F4914F6CDD1DULL)
    {
        s0_ = splitmix64(seed);
        s1_ = splitmix64(s0_ ^ 0x9E3779B97F4A7C15ULL);
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** Next 64 random bits. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift range reduction; bias is negligible for our use.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /**
     * Uniform double in [0, 1): exactly (next() >> 11) * 2^-53, so
     * uniform() < t can be decided on the integer alone.
     */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

} // namespace epf

#endif // EPF_SIM_RNG_HPP

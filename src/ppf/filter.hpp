/**
 * @file
 * The address filter and its configuration table (Section 4.2).
 *
 * The filter snoops every read issued by the main core and every prefetch
 * fill arriving at the L1.  Each entry holds a virtual address range for
 * one data structure, the kernels to run on load/prefetch events in that
 * range, and the flags the EWMA calculators use for scheduling.  Ranges
 * may overlap; every matching entry produces its own observation.
 */

#ifndef EPF_PPF_FILTER_HPP
#define EPF_PPF_FILTER_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "sim/types.hpp"

namespace epf
{

/** One configured address range. */
struct FilterEntry
{
    std::string name;
    /** Virtual address range [base, limit). */
    Addr base = 0;
    Addr limit = 0;
    /** Kernel run when the core loads in this range (Load Ptr). */
    KernelId onLoad = kNoKernel;
    /** Kernel run when a prefetch into this range completes (PF Ptr). */
    KernelId onPrefetch = kNoKernel;
    /** Record inter-access times here (loop-iteration EWMA source). */
    bool timeSource = false;
    /** Chains produced by this entry's events carry a start timestamp. */
    bool timedStart = false;
    /** A timed chain arriving here samples the chain-latency EWMA. */
    bool timedEnd = false;

    bool
    contains(Addr a) const
    {
        return a >= base && a < limit;
    }
};

/**
 * The filter table: a small array of configured ranges, matched by a
 * linear scan in insertion order (the order kernels were configured
 * in).  Every shipped or compiled program installs a handful of
 * entries.
 */
class FilterTable
{
  public:
    /** Hardware-table bound. */
    static constexpr std::size_t kMaxEntries = 64;

    /** Add an entry; returns its index (used by lookahead kernels).
     *  Throws std::invalid_argument past kMaxEntries entries. */
    int
    add(const FilterEntry &e)
    {
        if (entries_.size() >= kMaxEntries)
            throw std::invalid_argument(
                "filter table exceeds its hardware bound of 64 entries");
        entries_.push_back(e);
        return static_cast<int>(entries_.size() - 1);
    }

    /** Visit every entry containing @p a, in insertion order. */
    template <typename Fn>
    void
    match(Addr a, Fn &&fn) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].contains(a))
                fn(static_cast<int>(i), entries_[i]);
    }

    const FilterEntry &operator[](int idx) const { return entries_.at(static_cast<std::size_t>(idx)); }

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<FilterEntry> entries_;
};

} // namespace epf

#endif // EPF_PPF_FILTER_HPP

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

#include <algorithm>
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
 * The filter table: a small array of configured ranges.
 *
 * match() runs on every snooped core read, so lookups go through a
 * sorted interval index instead of a linear scan: spans are kept sorted
 * by base with a running maximum of limits, so a query binary-searches
 * to the last candidate and walks left only while an interval could
 * still cover the address.  Matches are reported in insertion order
 * (the order kernels were configured in), exactly as the linear scan
 * did.
 */
class FilterTable
{
  public:
    /** Hardware-table bound; also sizes match()'s stack buffer. */
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
        const int idx = static_cast<int>(entries_.size() - 1);
        spans_.insert(std::upper_bound(spans_.begin(), spans_.end(), e.base,
                                       [](Addr base, const Span &s) {
                                           return base < s.base;
                                       }),
                      Span{e.base, e.limit, idx});
        rebuildPrefixMax();
        return idx;
    }

    /** Visit every entry containing @p a, in insertion order. */
    template <typename Fn>
    void
    match(Addr a, Fn &&fn) const
    {
        if (spans_.empty())
            return;
        // First span with base > a: everything at or after it starts
        // past the address and can never contain it.
        std::size_t lo = 0, hi = spans_.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (spans_[mid].base <= a)
                lo = mid + 1;
            else
                hi = mid;
        }
        int matched[kMaxEntries];
        std::size_t n = 0;
        for (std::size_t i = lo; i-- > 0;) {
            // No span in [0, i] reaches past a: stop.
            if (prefixMaxLimit_[i] <= a)
                break;
            if (spans_[i].limit > a)
                matched[n++] = spans_[i].idx;
        }
        std::sort(matched, matched + n);
        for (std::size_t i = 0; i < n; ++i)
            fn(matched[i], entries_[static_cast<std::size_t>(matched[i])]);
    }

    const FilterEntry &operator[](int idx) const { return entries_.at(static_cast<std::size_t>(idx)); }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Span
    {
        Addr base;
        Addr limit;
        int idx;
    };

    void
    rebuildPrefixMax()
    {
        prefixMaxLimit_.resize(spans_.size());
        Addr running = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            running = std::max(running, spans_[i].limit);
            prefixMaxLimit_[i] = running;
        }
    }

    std::vector<FilterEntry> entries_;
    /** Entry intervals sorted by base address. */
    std::vector<Span> spans_;
    /** prefixMaxLimit_[i] = max limit over spans_[0..i]. */
    std::vector<Addr> prefixMaxLimit_;
};

} // namespace epf

#endif // EPF_PPF_FILTER_HPP

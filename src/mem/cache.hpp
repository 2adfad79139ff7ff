/**
 * @file
 * Set-associative write-back cache with MSHRs and prefetch support.
 *
 * One class serves as both the L1D (fronting the core, with demand and
 * prefetch entry points) and the L2 (fronting the L1 through the MemLevel
 * interface).  Prefetch-specific behaviour:
 *
 *  - prefetch fills mark lines "prefetched"; a later demand hit marks them
 *    "used" (Fig. 8(a)'s utilisation metric is used / fills);
 *  - MSHRs carry the paper's memory-request tag and PPU callback kernel,
 *    which are handed to the MemoryListener when the fill arrives
 *    (Section 4.7);
 *  - demand accesses that merge into an in-flight prefetch count the
 *    prefetch as used-but-late.
 */

#ifndef EPF_MEM_CACHE_HPP
#define EPF_MEM_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mem/mem_iface.hpp"
#include "mem/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/small_function.hpp"
#include "sim/types.hpp"

namespace epf
{

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity. */
    unsigned ways = 2;
    /** Tag/data access latency in ticks (applies to hits and to the
     *  lookup performed before forwarding a miss). */
    Tick accessLatency = 10;
    /** Number of miss-status-holding registers. */
    unsigned mshrs = 12;
};

/** One level of cache. */
class Cache : public MemLevel
{
  public:
    /** Outcome of a demand access from the core. */
    enum class DemandResult
    {
        Hit,    ///< data available after accessLatency
        Miss,   ///< MSHR allocated, request forwarded
        Merged, ///< merged into an in-flight MSHR
        NoMshr, ///< rejected: caller must retry
    };

    /** Outcome of a prefetch request presented to this cache. */
    enum class PrefetchResult
    {
        Issued,  ///< MSHR allocated, request forwarded
        Present, ///< line already resident: prefetch unnecessary
        Merged,  ///< an in-flight request already covers the line
        NoMshr,  ///< no MSHR available: try again later
    };

    /** Aggregate statistics for one cache level. */
    struct Stats
    {
        std::uint64_t loads = 0;
        std::uint64_t loadHits = 0;
        std::uint64_t stores = 0;
        std::uint64_t storeHits = 0;
        std::uint64_t demandMerges = 0;
        std::uint64_t mshrRejects = 0;
        std::uint64_t prefetchFills = 0;
        std::uint64_t pfUsed = 0;
        std::uint64_t pfUsedLate = 0;
        std::uint64_t pfUnusedEvicted = 0;
        std::uint64_t pfDropPresent = 0;
        std::uint64_t writebacks = 0;
        /** Resident lines dropped by directory invalidations. */
        std::uint64_t invalidations = 0;
        /** Demand line reads received through the MemLevel interface. */
        std::uint64_t lowerReads = 0;
        std::uint64_t lowerReadHits = 0;

        /** Field-wise sum — the one place aggregation across banks or
         *  cores enumerates the counters, so a new field cannot be
         *  silently dropped from one aggregation site. */
        Stats &
        operator+=(const Stats &o)
        {
            loads += o.loads;
            loadHits += o.loadHits;
            stores += o.stores;
            storeHits += o.storeHits;
            demandMerges += o.demandMerges;
            mshrRejects += o.mshrRejects;
            prefetchFills += o.prefetchFills;
            pfUsed += o.pfUsed;
            pfUsedLate += o.pfUsedLate;
            pfUnusedEvicted += o.pfUnusedEvicted;
            pfDropPresent += o.pfDropPresent;
            writebacks += o.writebacks;
            invalidations += o.invalidations;
            lowerReads += o.lowerReads;
            lowerReadHits += o.lowerReadHits;
            return *this;
        }
    };

    Cache(EventQueue &eq, const CacheParams &params, MemLevel &parent);

    // ---- Interface used when this cache is the L1 ----

    /**
     * Demand load/store from the core.  @p done fires at data-ready.
     * @p done is consumed unless the access is rejected (NoMshr), in
     * which case it is left intact so the caller can retry without
     * rebuilding the callback.
     */
    DemandResult demandAccess(bool is_load, Addr vaddr, Addr paddr,
                              DoneFn &&done);

    /** Present a prefetch request (from the PF queue or a swpf). */
    PrefetchResult prefetchAccess(const LineRequest &req);

    /** True if an MSHR is free. */
    bool hasFreeMshr() const { return freeMshrs_ > 0; }

    /** Number of currently free MSHRs. */
    unsigned freeMshrCount() const { return freeMshrs_; }

    /** True if the line containing @p paddr is resident. */
    bool hasLine(Addr paddr) const;

    /** Observer of prefetch fills (the programmable prefetcher). */
    void setListener(MemoryListener *l) { listener_ = l; }

    /** Hook invoked every time an MSHR is released. */
    void setMshrFreeHook(SmallFunction<void()> fn) { mshrFreeHook_ = std::move(fn); }

    /**
     * Attach this (private) cache to a coherence directory as @p port.
     * Fills, store hits and evictions are reported to the hub; the hub
     * invalidates remote copies through invalidateLine().
     */
    void
    setCoherence(CoherenceHub *hub, unsigned port)
    {
        coherence_ = hub;
        coherencePort_ = port;
    }

    /**
     * Directory-initiated invalidation of @p line_addr (line-aligned).
     * A dirty copy is written back to the parent first.  Returns true
     * when a resident copy was dropped.  In-flight MSHRs are untouched:
     * the minimal protocol has no transient states, so a line being
     * fetched simply re-registers with the directory when it fills.
     */
    bool invalidateLine(Addr line_addr);

    // ---- MemLevel interface (when this cache is a parent, i.e. L2) ----

    void readLine(const LineRequest &req, DoneFn done) override;
    void writeLine(const LineRequest &req) override;

    const Stats &stats() const { return stats_; }
    const CacheParams &params() const { return p_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        bool used = false;
        Addr lineAddr = 0; ///< line-aligned physical address
        std::uint64_t lru = 0;
    };

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        bool wasStore = false;
        /** Demand waiters merged onto this miss. */
        std::vector<DoneFn> waiters;
        /** Original request metadata (prefetch tags etc.). */
        LineRequest req;
        /** True if a demand access merged into a prefetch MSHR. */
        bool demanded = false;
    };

    unsigned setIndex(Addr line_addr) const;
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Line &pickVictim(Addr line_addr);
    Mshr *findMshr(Addr line_addr);
    /**
     * MSHRs are a fixed pool: alloc/release recycle entries in place,
     * keeping each entry's waiter-vector capacity so the demand path
     * stops allocating once warm.
     */
    Mshr *allocMshr();
    void releaseMshr(Mshr &m);

    /** Handle the arrival of data for @p m from the parent level. */
    void handleFill(Mshr &m);

    /** Install a line (fill or full-line writeback allocate). */
    Line &installLine(Addr line_addr, bool dirty, bool prefetched);

    /** Record a demand hit on a resident line (prefetch-used tracking). */
    void touchForDemand(Line &line);

    /** Try to start queued lower-level reads that were MSHR-blocked. */
    void drainOverflow();

    EventQueue &eq_;
    CacheParams p_;
    MemLevel &parent_;
    MemoryListener *listener_ = nullptr;
    SmallFunction<void()> mshrFreeHook_;
    CoherenceHub *coherence_ = nullptr;
    unsigned coherencePort_ = 0;

    unsigned numSets_;
    std::vector<Line> lines_; ///< numSets_ * ways, set-major
    std::vector<Mshr> mshrs_;
    unsigned freeMshrs_;
    std::uint64_t lruClock_ = 0;

    /** Lower-level reads waiting for an MSHR (L2 input queue). */
    Ring<std::pair<LineRequest, DoneFn>> overflow_;

    /** Scratch buffer for waiters during a fill (capacity reused). */
    std::vector<DoneFn> fillWaiters_;

    Stats stats_;
};

} // namespace epf

#endif // EPF_MEM_CACHE_HPP

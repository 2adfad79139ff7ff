/**
 * @file
 * Paging: deterministic page table, two-level TLB and a page-table walker.
 *
 * The shared TLB serves both the core's demand accesses and the prefetch
 * request queue (Section 4.6 of the paper).  The prefetcher may initiate
 * page-table walks but a fault (an address outside every registered guest
 * region) causes the translation to report failure so the prefetch can be
 * dropped (Section 5.3).
 */

#ifndef EPF_MEM_TLB_HPP
#define EPF_MEM_TLB_HPP

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/guest_memory.hpp"
#include "mem/mem_iface.hpp"
#include "sim/event_queue.hpp"
#include "sim/object_pool.hpp"
#include "sim/rng.hpp"
#include "sim/small_function.hpp"
#include "sim/types.hpp"

namespace epf
{

/**
 * Demand-populated page table with a scattering VA->PA permutation.
 *
 * Physical page numbers are assigned on first touch via a multiplicative
 * permutation, so VA-adjacent pages land in unrelated DRAM rows (as on a
 * long-running system) while each 4 KB page stays physically contiguous.
 */
class PageTable
{
  public:
    explicit PageTable(const GuestMemory &mem) : mem_(mem) {}

    /** True if the page holding @p vaddr is backed by a guest region. */
    bool mapped(Addr vaddr) const { return mem_.contains(vaddr); }

    /** Translate; page is allocated on first use.  @p vaddr must be mapped. */
    Addr translate(Addr vaddr);

    /** Number of pages touched so far. */
    std::size_t pagesTouched() const { return vpnToPpn_.size(); }

  private:
    static constexpr Addr kPpnBits = 22; // 16 GB physical space
    static constexpr Addr kPpnMask = (Addr{1} << kPpnBits) - 1;
    static constexpr Addr kOddMultiplier = 0x9E3779B9ULL | 1ULL;

    const GuestMemory &mem_;
    std::unordered_map<Addr, Addr> vpnToPpn_;
    Addr nextSeq_ = 1;
};

/** TLB geometry and timing. */
struct TlbParams
{
    unsigned l1Entries = 64;   ///< fully associative
    unsigned l2Entries = 4096; ///< 8-way
    unsigned l2Ways = 8;
    Tick l2Latency = 8 * 5; ///< 8 core cycles at 3.2 GHz
    unsigned maxWalks = 3;  ///< concurrent page-table walks
    /** Memory reads per walk (levels fetched from the cache hierarchy). */
    unsigned walkReads = 2;
};

/** Two-level shared TLB with a finite-concurrency page-table walker. */
class Tlb
{
  public:
    /**
     * Result callback: (paddr, fault).  56 inline bytes covers the
     * demand path (a pooled-transaction pointer) and the prefetch path
     * (a LineRequest by value) without heap allocation.
     */
    using TranslateFn = SmallFunction<void(Addr, bool), 56>;

    struct Stats
    {
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t walks = 0;
        std::uint64_t faults = 0;
    };

    /**
     * @param eq      event queue
     * @param params  geometry/timing
     * @param pt      page table
     * @param walkMem level of the hierarchy the walker reads PTEs through
     */
    Tlb(EventQueue &eq, const TlbParams &params, PageTable &pt,
        MemLevel &walkMem);

    /**
     * Translate @p vaddr.  The callback fires after the TLB/walk latency;
     * for an unmapped address it reports fault=true (after the walk, as
     * real hardware discovers faults at the leaf).
     */
    void translate(Addr vaddr, TranslateFn cb);

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats{}; }

    /** Drop all cached translations (context-switch support). */
    void flush();

  private:
    /** An L2 entry. */
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        Addr ppn = 0;
        std::uint64_t lru = 0;
    };

    struct Walk
    {
        Addr vpn;
        std::vector<TranslateFn> waiters;
    };

    /** An L2-hit completion in flight (pooled: L2 hits are hot). */
    struct PendingHit
    {
        Addr paddr = 0;
        TranslateFn cb;
    };

    bool lookupL1(Addr vpn, Addr &ppn);
    bool lookupL2(Addr vpn, Addr &ppn);
    void insertL1(Addr vpn, Addr ppn);
    void insertL2(Addr vpn, Addr ppn);

    /** Begin or join a walk for @p vpn. */
    void startWalk(Addr vpn, TranslateFn cb);
    void issueWalkReads(std::size_t walk_idx, unsigned remaining);
    void finishWalk(std::size_t walk_idx);
    void pumpWalkQueue();

    EventQueue &eq_;
    TlbParams p_;
    PageTable &pt_;
    MemLevel &walkMem_;

    /**
     * The fully associative L1 as parallel arrays, so a lookup scans
     * packed vpns only.  The valid entries are always the prefix
     * [0, l1Valid_): an insert takes the first free slot while one is
     * left, and flush() is the only thing that invalidates, all at once.
     */
    std::vector<Addr> l1Vpn_;
    std::vector<Addr> l1Ppn_;
    std::vector<std::uint64_t> l1Lru_;
    std::size_t l1Valid_ = 0;

    std::vector<Entry> l2_; // set-associative, set-major
    unsigned l2Sets_;
    std::uint64_t lruClock_ = 0;

    std::vector<Walk> activeWalks_;
    std::deque<Walk> queuedWalks_;
    ObjectPool<PendingHit> pendingHits_;

    Stats stats_;
};

} // namespace epf

#endif // EPF_MEM_TLB_HPP

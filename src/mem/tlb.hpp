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
     * Result callback: (paddr, fault).  The demand path captures a
     * pooled-transaction pointer and the prefetch path a LineRequest by
     * value, both within the inline budget.
     */
    using TranslateFn = SmallFunction<void(Addr, bool)>;

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

  private:
    /** An L2 entry. */
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        Addr ppn = 0;
        std::uint64_t lru = 0;
    };

    /** A translation waiting on a walk: its page offset and callback. */
    struct Waiter
    {
        Addr offset;
        TranslateFn cb;
    };

    struct Walk
    {
        Addr vpn;
        std::vector<Waiter> waiters;
    };

    /** An L2-hit completion in flight (pooled: L2 hits are hot). */
    struct PendingHit
    {
        Addr paddr = 0;
        TranslateFn cb;
    };

    bool lookupL1(Addr vpn, Addr &ppn);
    bool lookupL2(Addr vpn, Addr &ppn);
    /** Make L1 slot @p slot the most recently used. */
    void touchL1(std::uint32_t slot);
    /** The index bucket where @p vpn's probe starts. */
    std::size_t l1Home(Addr vpn) const;
    /** Index position of @p vpn, or of the empty slot ending its probe. */
    std::size_t l1IndexFind(Addr vpn) const;
    /** Drop resident @p vpn from the index. */
    void l1IndexRemove(Addr vpn);
    void insertL1(Addr vpn, Addr ppn);
    void insertL2(Addr vpn, Addr ppn);

    /** Begin or join a walk for @p vpn. */
    void startWalk(Addr vpn, Addr offset, TranslateFn cb);
    void issueWalkReads(std::size_t walk_idx, unsigned remaining);
    void finishWalk(std::size_t walk_idx);
    void pumpWalkQueue();

    EventQueue &eq_;
    TlbParams p_;
    PageTable &pt_;
    MemLevel &walkMem_;

    /** An L1 slot and its links in the recency list. */
    struct L1Slot
    {
        Addr vpn = 0;
        Addr ppn = 0;
        std::uint32_t prev = 0; ///< next more recently used slot
        std::uint32_t next = 0; ///< next less recently used slot
    };

    /** No page number is this large: marks an empty index bucket. */
    static constexpr Addr kNoVpn = ~Addr{0};

    /** An index bucket: L1 slot @ref slot holds @ref vpn. */
    struct L1IndexEntry
    {
        Addr vpn = kNoVpn;
        std::uint32_t slot = 0;
    };

    /**
     * The fully associative L1.  The valid slots are always the prefix
     * [0, l1Valid_): a fill takes the first free slot while one is
     * left, then the least recently used one, and nothing invalidates
     * a slot once filled.  Valid slots form a doubly linked recency
     * list from l1Newest_ to l1Oldest_, and an open-addressed (linear
     * probing) index maps each resident vpn to its slot.  A vpn is
     * resident at most once: only an L1 miss fills, and a walk fills
     * its page once, before any of its waiters' callbacks run.
     */
    std::vector<L1Slot> l1_;
    std::size_t l1Valid_ = 0;
    std::uint32_t l1Newest_ = 0;
    std::uint32_t l1Oldest_ = 0;
    std::vector<L1IndexEntry> l1Index_; ///< power-of-two buckets
    int l1IndexShift_ = 0;              ///< 64 - log2(buckets)

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

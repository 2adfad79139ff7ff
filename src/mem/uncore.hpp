/**
 * @file
 * The shared half of the machine: banked L2, DRAM channel, page table
 * and the coherence directory.
 *
 * Every core port (private L1 + TLB slice, see core_port.hpp) reaches
 * the uncore through its own MemLevel view.  With a single port the
 * view forwards straight to the L2 bank — byte-identical behaviour to
 * the original single-core hierarchy.  With several ports each L2 bank
 * arbitrates among the ports' queued line reads with a deterministic
 * round-robin grant every `l2ArbPeriod` ticks, so multi-core runs are
 * reproducible at any host thread count.  One shared wake event per
 * tick grants every bank due at that tick, in bank-index order; an
 * idle bank grants a new request in its arrival tick, so an
 * uncontended read sees the same latency as the single-port bypass.
 *
 * Coherence is a minimal shared-read / exclusive-write ownership
 * directory: a write from one core invalidates every other core's copy
 * of the line (dirty copies write back first); a read of an exclusive
 * line downgrades the owner to shared.  Invalidations are instantaneous
 * — the protocol has no transient states — which is sufficient because
 * functional data lives in host memory and the caches model timing
 * only.
 */

#ifndef EPF_MEM_UNCORE_HPP
#define EPF_MEM_UNCORE_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/guest_memory.hpp"
#include "mem/mem_iface.hpp"
#include "mem/tlb.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_buffer.hpp"

namespace epf
{

/** Parameters of the whole memory system. */
struct MemParams
{
    CacheParams l1;
    CacheParams l2;
    DramParams dram;
    TlbParams tlb;
    /** Core clock period in ticks (used for retry pacing). */
    Tick corePeriod = 5;
    /**
     * L1 MSHRs kept free for demand misses: prefetch requests only
     * issue while more than this many MSHRs are available, so the
     * prefetcher cannot starve the core.  Enforced both when a request
     * is popped from the queue and again when its translation lands.
     */
    unsigned demandReservedMshrs = 2;
    /**
     * L2 bank count (power of two); 0 = one bank per core port.  The
     * configured L2 capacity and MSHRs are split evenly across banks.
     */
    unsigned l2Banks = 0;
    /** Ticks between round-robin L2 grants when ports contend. */
    Tick l2ArbPeriod = 5;

    /** Table 1 defaults. */
    static MemParams defaults();
};

/** Shared L2 + DRAM + page table + coherence directory. */
class Uncore : public CoherenceHub
{
  public:
    struct Stats
    {
        /** Line reads granted to a port by a bank arbiter. */
        std::uint64_t arbGrants = 0;
        /** Grants issued while another port was also waiting. */
        std::uint64_t arbConflicts = 0;
        /** Remote L1 copies dropped by exclusive-write upgrades. */
        std::uint64_t invalidations = 0;
        /** Exclusive owners demoted to shared by a remote read. */
        std::uint64_t downgrades = 0;
    };

    Uncore(EventQueue &eq, GuestMemory &mem, const MemParams &params,
           unsigned ports);

    unsigned ports() const { return ports_; }
    unsigned banks() const { return static_cast<unsigned>(banks_.size()); }

    /** The arbitrated view core port @p p sends its line traffic through
     *  (L1 miss fetches, L1 writebacks and TLB walk reads). */
    MemLevel &port(unsigned p) { return views_[p]; }

    Cache &l2Bank(unsigned b) { return *banks_[b].cache; }
    Dram &dram() { return *dram_; }
    PageTable &pageTable() { return *pageTable_; }
    const Stats &stats() const { return stats_; }

    /** Sum of all banks' cache statistics. */
    Cache::Stats l2Stats() const;

    /** Register port @p p's L1 with the coherence directory.  Only
     *  called for multi-port assemblies; single-core machines skip the
     *  directory entirely. */
    void attachL1(unsigned p, Cache *l1);

    // ---- CoherenceHub (called by the attached L1s) ----

    void onFill(unsigned port, Addr line_addr, bool exclusive) override;
    void onWrite(unsigned port, Addr line_addr) override;
    void onEvict(unsigned port, Addr line_addr) override;

  private:
    /** MemLevel adapter binding a port id to the shared banks. */
    class PortView final : public MemLevel
    {
      public:
        PortView(Uncore *u, unsigned p) : u_(u), p_(p) {}
        void
        readLine(const LineRequest &req, DoneFn done) override
        {
            u_->portRead(p_, req, std::move(done));
        }
        void
        writeLine(const LineRequest &req) override
        {
            u_->portWrite(p_, req);
        }

      private:
        Uncore *u_;
        unsigned p_;
    };

    struct Pending
    {
        LineRequest req;
        DoneFn done;
    };

    struct Bank
    {
        std::unique_ptr<Cache> cache;
        /** Per-port request queues the arbiter grants from. */
        std::vector<Ring<Pending>> queues;
        unsigned rrNext = 0;
        /** Tick of this bank's next grant slot (kTickMax when idle). */
        Tick nextGrantAt = kTickMax;
    };

    /** Directory state of one line. */
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask of ports holding the line
        bool exclusive = false;
        std::uint8_t owner = 0;
    };

    unsigned bankOf(Addr paddr) const;
    void portRead(unsigned port, const LineRequest &req, DoneFn done);
    void portWrite(unsigned port, const LineRequest &req);
    /** True if any port queue of @p bank holds a request. */
    bool bankHasWork(const Bank &bank) const;
    /** Issue one round-robin grant on @p bank (requires queued work);
     *  returns true if requests remain queued afterwards. */
    bool grantOne(Bank &bank);
    /** Ensure an arbiter wake event no later than @p when. */
    void armArb(Tick when);
    /** Grant every bank due now, in bank-index order, and re-arm for
     *  the earliest future slot. */
    void arbDrain();
    void invalidateOthers(unsigned port, Addr line_addr, DirEntry &e);

    EventQueue &eq_;
    MemParams p_;
    unsigned ports_;

    std::unique_ptr<Dram> dram_;
    std::vector<Bank> banks_;
    std::unique_ptr<PageTable> pageTable_;
    std::vector<PortView> views_;

    std::vector<Cache *> l1s_;
    std::unordered_map<Addr, DirEntry> dir_;

    /** Tick of the live arbiter wake event (kTickMax when none) and its
     *  generation (earlier re-arms orphan stale wakes). */
    Tick arbWakeAt_ = kTickMax;
    std::uint64_t arbGen_ = 0;

    Stats stats_;
};

} // namespace epf

#endif // EPF_MEM_UNCORE_HPP

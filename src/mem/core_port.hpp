/**
 * @file
 * The per-core private half of the memory system.
 *
 * One CorePort owns a core's L1D and its TLB slice, and implements the
 * two client-facing paths of the original single-core hierarchy:
 *
 *  - the demand path used by the core model (translate, access L1,
 *    retry while MSHRs are exhausted);
 *  - the prefetch issue path: whenever the L1 has a free MSHR it pops
 *    the attached PrefetchSource (the paper's prefetch request queue),
 *    translates through the port's TLB, drops on fault, and issues
 *    (Section 4.6).
 *
 * Each port carries its own MemoryListener / PrefetchSource attachment,
 * so every core gets a private prefetcher instance (PPF or baseline).
 * All line traffic below the L1 — miss fetches, writebacks and TLB walk
 * reads — goes through the shared Uncore's arbitrated port view.
 */

#ifndef EPF_MEM_CORE_PORT_HPP
#define EPF_MEM_CORE_PORT_HPP

#include <cstdint>
#include <memory>

#include "mem/cache.hpp"
#include "mem/guest_memory.hpp"
#include "mem/mem_iface.hpp"
#include "mem/tlb.hpp"
#include "mem/uncore.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/object_pool.hpp"
#include "sim/ring_buffer.hpp"

namespace epf
{

/** Private L1 + TLB slice of one core, fronting the shared uncore. */
class CorePort
{
  public:
    struct Stats
    {
        std::uint64_t coreLoads = 0;
        std::uint64_t coreStores = 0;
        /** Load demand accesses rejected by a full L1 MSHR file. */
        std::uint64_t loadRetries = 0;
        /** Store demand accesses rejected by a full L1 MSHR file. */
        std::uint64_t storeRetries = 0;
        std::uint64_t swPrefetches = 0;
        std::uint64_t swPrefetchDrops = 0;
        std::uint64_t pfIssued = 0;
        std::uint64_t pfDropPresent = 0;
        std::uint64_t pfDropMerged = 0;
        std::uint64_t pfDropFault = 0;
        /** Prefetches dropped by the translated-skid overflow bound. */
        std::uint64_t pfSkidDropped = 0;
    };

    /**
     * Build port @p portId of @p uncore.  Multi-port assemblies attach
     * the L1 to the uncore's coherence directory; a single-port machine
     * skips the directory so its behaviour (and host cost) is identical
     * to the pre-split hierarchy.
     */
    CorePort(EventQueue &eq, GuestMemory &mem, Uncore &uncore,
             const MemParams &params, unsigned portId);

    unsigned portId() const { return portId_; }

    // ---- Demand path (core model) ----

    /**
     * Issue a load; @p done fires when data is ready in the core.
     * @p stream_id is a stable identifier of the originating load
     * instruction (the PC proxy baseline prefetchers train on).
     */
    void load(Addr vaddr, int stream_id, DoneFn done);

    /** Issue a store; @p done fires when the store has been accepted. */
    void store(Addr vaddr, int stream_id, DoneFn done);

    /** Issue a best-effort software prefetch (dropped under pressure). */
    void swPrefetch(Addr vaddr);

    // ---- Prefetcher attachment ----

    /** Observer of L1 demand traffic and prefetch fills. */
    void setListener(MemoryListener *l);

    /** The queue of prefetch requests the L1 drains. */
    void setPrefetchSource(PrefetchSource *src) { pfSource_ = src; }

    /** Notify that the prefetch source may have new requests. */
    void kickPrefetcher() { tryIssuePrefetches(); }

    /** Attach the run's fault injector (null: fault-free, the default). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    // ---- Introspection ----

    Cache &l1() { return *l1_; }
    Tlb &tlb() { return *tlb_; }
    const Stats &stats() const { return stats_; }

  private:
    /**
     * One demand access in flight between the core and the L1.  Pooled:
     * the TLB callback and the MSHR retry loop carry a pointer to this
     * instead of re-capturing the whole request each hop.
     */
    struct DemandTxn
    {
        Addr vaddr = 0;
        Addr paddr = 0;
        int streamId = 0;
        bool isLoad = false;
        DoneFn done;
    };

    void demandAccess(bool is_load, Addr vaddr, int stream_id, DoneFn done);
    void attemptDemand(DemandTxn *txn);
    void tryIssuePrefetches();
    void issueTranslatedPrefetch(const LineRequest &req);
    /** Park a translated prefetch the L1 cannot take yet in the skid,
     *  or drop it (pfSkidDropped) when the skid is full. */
    void skidOrDrop(const LineRequest &req);

    /** True when the listener chains an event off @p req's outcome
     *  (a callback kernel or a memory-request tag). */
    bool
    listenerAwaits(const LineRequest &req) const
    {
        return listener_ != nullptr && (req.cbKernel >= 0 || req.tag >= 0);
    }

    EventQueue &eq_;
    GuestMemory &mem_;
    MemParams p_;
    unsigned portId_;

    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Tlb> tlb_;

    MemoryListener *listener_ = nullptr;
    PrefetchSource *pfSource_ = nullptr;

    /** Translated prefetches waiting for a free MSHR. */
    Ring<LineRequest> pfSkid_;
    /** In-flight demand accesses (reused across the whole run). */
    ObjectPool<DemandTxn> demandTxns_;
    /** Outstanding prefetch translations (bounds TLB pressure). */
    unsigned pfTranslations_ = 0;
    static constexpr unsigned kMaxPfTranslations = 4;
    /**
     * Skid bound: the issue loop stops popping the source while the
     * skid is non-empty, so steady state holds ~kMaxPfTranslations
     * entries; a storming source that beats that bound sheds load here
     * (drop-with-stat) instead of growing without limit.
     */
    static constexpr std::size_t kMaxPfSkid = 1024;

    FaultInjector *faults_ = nullptr;
    Stats stats_;
};

} // namespace epf

#endif // EPF_MEM_CORE_PORT_HPP

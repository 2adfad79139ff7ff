/**
 * @file
 * The event-triggered programmable prefetcher (Section 4 of the paper).
 *
 * Structure (Fig. 3): snooped core reads and completed prefetch fills pass
 * through the address filter; matching observations enter a 40-entry FIFO
 * observation queue; a scheduler hands each one to the lowest-numbered
 * free programmable prefetch unit (12 in-order cores at 1 GHz by
 * default; the resulting skew is Fig. 10's), which runs a small event
 * kernel that emits new prefetch requests into a 200-entry FIFO request
 * queue.  The L1 drains that queue through the shared TLB whenever it has
 * a spare MSHR.  EWMA calculators time loop iterations and prefetch
 * chains to provide dynamic lookahead distances.  Memory-request tags
 * route fills of non-contiguous structures (linked lists, trees) back to
 * the right kernel.
 *
 * A "blocked" mode (Fig. 11's ablation) makes chained prefetches stall
 * their issuing PPU until the data returns, as a prefetcher without the
 * event-triggered programming model would have to.
 */

#ifndef EPF_PPF_PPF_HPP
#define EPF_PPF_PPF_HPP

#include <cstdint>
#include <vector>

#include "isa/interpreter.hpp"
#include "isa/isa.hpp"
#include "mem/guest_memory.hpp"
#include "mem/mem_iface.hpp"
#include "ppf/ewma.hpp"
#include "ppf/filter.hpp"
#include "sim/clock.hpp"
#include "sim/fault.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/small_function.hpp"

namespace epf
{

/** Configuration of the programmable prefetcher. */
struct PpfConfig
{
    unsigned numPpus = 12;
    /** PPU clock period in ticks (16 => 1 GHz). */
    Tick ppuPeriod = 16;
    /** Scheduler hand-off overhead per event, in PPU cycles. */
    unsigned dispatchOverhead = 2;
    std::size_t obsQueueCapacity = 40;
    std::size_t reqQueueCapacity = 200;
    /** Fig. 11 ablation: stall PPUs on chained prefetches. */
    bool blocking = false;
    /**
     * Event-storm backpressure throttle: when a single window of
     * stormWindowTicks ticks sees more than stormThreshold queued
     * prefetch requests, the remainder of the window is dropped with a
     * stat instead of churning the request queue.  0 disables (the
     * default — the golden runs are throttle-free); the FaultParity
     * matrix turns it on for fault schedules 9–11.
     */
    Tick stormWindowTicks = 0;
    std::uint64_t stormThreshold = 256;
    /**
     * Per-kernel quarantine watchdog: a kernel accumulating
     * quarantineThreshold faults (traps, watchdog-step exhaustion,
     * injected storms) is killed — its events are skipped — and
     * re-enabled after quarantineBaseTicks << backoff-level ticks
     * (exponential backoff, exponent capped at quarantineBackoffMax).
     * 0 disables (the default: G500-CSR's traversal kernels
     * legitimately run to the step watchdog every event).
     */
    std::uint64_t quarantineThreshold = 0;
    Tick quarantineBaseTicks = 50'000;
    unsigned quarantineBackoffMax = 6;
};

/** The programmable prefetcher. */
class ProgrammablePrefetcher : public MemoryListener, public PrefetchSource
{
  public:
    struct Stats
    {
        std::uint64_t observations = 0;
        std::uint64_t obsDropped = 0;
        std::uint64_t obsNoData = 0;
        std::uint64_t eventsRun = 0;
        std::uint64_t traps = 0;
        std::uint64_t stepLimits = 0;
        std::uint64_t prefetchesEmitted = 0;
        std::uint64_t reqDropped = 0;
        std::uint64_t chainSamples = 0;
        std::uint64_t blockedStalls = 0;
        /** Blocked-mode local queue overflow drops (bounded ring). */
        std::uint64_t localDropped = 0;
        /** Requests dropped by the event-storm throttle. */
        std::uint64_t throttleDropped = 0;
        /** Windows in which the throttle engaged. */
        std::uint64_t throttleEntries = 0;
        /** Kernel kills by the quarantine watchdog. */
        std::uint64_t quarantineKills = 0;
        /** Kernels re-enabled after their backoff expired. */
        std::uint64_t quarantineReenables = 0;
        /** Events skipped because their kernel was quarantined. */
        std::uint64_t quarantineSkips = 0;
    };

    /** Per-PPU accounting for Fig. 10. */
    struct PpuStats
    {
        Tick busyTicks = 0;
        std::uint64_t events = 0;
    };

    ProgrammablePrefetcher(EventQueue &eq, GuestMemory &mem,
                           const PpfConfig &cfg);

    // ---- Configuration API (driven by PfConfig ops in the trace) ----

    /** The kernel store for this application. */
    KernelTable &kernels() { return kernels_; }
    const KernelTable &kernels() const { return kernels_; }

    /** Configure an address range; returns the filter index. */
    int addFilter(const FilterEntry &e);

    /** Register a memory-request tag bound to a fill kernel. */
    std::int32_t registerTag(KernelId kernel);

    /** Write a global register. */
    void setGlobal(unsigned idx, std::uint64_t value);

    /** Allocate the next free global register and initialise it. */
    unsigned allocGlobal(std::uint64_t value);

    std::uint64_t global(unsigned idx) const { return globals_.at(idx); }

    /** Hook to prod the hierarchy when new requests are queued. */
    void setKick(SmallFunction<void()> fn) { kick_ = std::move(fn); }

    /** Attach the run's fault injector (null: fault-free, the default). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    // ---- MemoryListener (the snoop/fill port) ----

    void notifyDemand(Addr vaddr, bool is_load, bool hit,
                      int stream_id) override;
    void notifyPrefetchFill(const LineRequest &req) override;
    void notifyPrefetchDropped(const LineRequest &req) override;

    // ---- PrefetchSource (the prefetch request queue) ----

    bool hasRequest() const override { return !reqQueue_.empty(); }
    LineRequest popRequest() override;

    // ---- Introspection ----

    const Stats &stats() const { return stats_; }
    const std::vector<PpuStats> &ppuStats() const { return ppuStats_; }
    const FilterTable &filters() const { return filters_; }
    const PpfConfig &config() const { return cfg_; }

    /** Registered memory-request tags, tag index -> fill kernel.  The
     *  lint layer uses this to type each kernel's trigger events. */
    const std::vector<KernelId> &tagKernels() const { return tagKernels_; }

    /** Current lookahead (elements) for filter entry @p idx. */
    std::uint64_t lookaheadOf(int idx) const;

    /** FNV-1a over every quarantine transition ever taken — two runs
     *  with the same hash took bit-identical kill/re-enable sequences. */
    std::uint64_t quarantineLogHash() const { return quarantineLogHash_; }

  private:
    /** One queued event. */
    struct Observation
    {
        Addr vaddr = 0;
        KernelId kernel = kNoKernel;
        bool hasLine = false;
        LineData line{};
        bool hasTimedStart = false;
        Tick timedStart = 0;
        std::int16_t timedOrigin = -1;
    };

    /**
     * A programmable prefetch unit.  It holds the event it runs from
     * dispatch to finish, so the start and finish events capture only
     * the unit's index.
     */
    struct Ppu
    {
        bool busy = false;
        Tick lastAssign = 0;
        /** Blocked mode: chained prefetches outstanding. */
        unsigned pendingFills = 0;
        /** Blocked mode: fills waiting to run on this unit. */
        Ring<Observation> local;
        /** True while actually executing (vs. stalled). */
        bool executing = false;
        /** Times the unit was released; finishEvent compares it across
         *  the queueing and kick that can release the unit at once. */
        std::uint64_t releases = 0;
        /** The observation this unit is running. */
        Observation obs;
        /** Prefetches its kernel emitted, queued when it finishes
         *  (capacity reused across events). */
        std::vector<PrefetchEmit> emits;
    };

    /** Fault-checked delivery front door (drop/delay/overflow sites). */
    void enqueueObservation(Observation obs);
    /** Capacity-checked enqueue proper (delayed deliveries re-enter
     *  here so an injected delay can never re-draw itself). */
    void enqueueObservationNow(Observation obs);
    void trySchedule();
    /** Lowest-numbered free PPU, or -1 when all are busy. */
    int pickFreePpu();
    /** Begin executing @p obs on @p ppu at the next PPU clock edge. */
    void startEvent(unsigned ppu, Observation obs);
    /** Interpret @p ppu's kernel and schedule its completion. */
    void executeEvent(unsigned ppu, Tick start);
    void finishEvent(unsigned ppu, Tick finish);
    void releasePpu(unsigned ppu, Tick now);
    /** Blocked mode: run the next queued local observation if idle. */
    void pumpBlocked(unsigned ppu);

    /** Turn a kernel emission into a queued LineRequest; @p req
     *  carries the emitting event's timed-chain fields. */
    void queueRequest(const PrefetchEmit &e, LineRequest req,
                      int origin_ppu);
    /** Throttle + capacity-checked push (delayed requests re-enter
     *  here, past the fault sites). */
    void queueRequestNow(LineRequest req);

    /** Redirect a corrupted prefetch target inside a mapped region. */
    Addr corruptMapped(std::uint64_t bits) const;
    /** Redirect a corrupted prefetch target outside every region. */
    Addr corruptUnmapped(std::uint64_t bits) const;

    // ---- Quarantine watchdog ----

    /** True when @p k's events must be skipped now (handles the lazy
     *  backoff-expiry re-enable transition). */
    bool kernelQuarantined(KernelId k, Tick now);
    /** Count one fault against @p k; kill it at the threshold. */
    void recordKernelFault(KernelId k, Tick now);
    void logQuarantine(Tick tick, KernelId k, bool kill, unsigned level);

    /** Route a fill to its kernel / PPU. */
    void routeFill(const LineRequest &req);

    EventQueue &eq_;
    GuestMemory &mem_;
    PpfConfig cfg_;
    ClockDomain ppuClock_;

    KernelTable kernels_;
    FilterTable filters_;
    std::vector<std::uint64_t> globals_;
    unsigned globalsAllocated_ = 0;
    std::vector<KernelId> tagKernels_;
    std::vector<LookaheadCalculator> lookahead_;

    Ring<Observation> obsQueue_;
    Ring<LineRequest> reqQueue_;
    std::vector<Ppu> ppus_;
    std::vector<PpuStats> ppuStats_;

    /** Lookahead snapshot handed to kernels (capacity reused). */
    std::vector<std::uint64_t> lookaheadScratch_;

    SmallFunction<void()> kick_;
    FaultInjector *faults_ = nullptr;

    // ---- Event-storm throttle state (config-gated) ----
    std::uint64_t stormWindow_ = 0;
    std::uint64_t stormCount_ = 0;
    bool throttled_ = false;

    // ---- Quarantine watchdog state (config-gated) ----
    struct KernelHealth
    {
        std::uint64_t faults = 0;
        unsigned backoffLevel = 0;
        /** 0: not quarantined; else earliest re-enable tick. */
        Tick quarantinedUntil = 0;
    };
    std::vector<KernelHealth> kernelHealth_;
    std::uint64_t quarantineLogHash_ = 0xCBF29CE484222325ULL;

    Stats stats_;
};

} // namespace epf

#endif // EPF_PPF_PPF_HPP

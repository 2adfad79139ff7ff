#include "ppf/ppf.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace epf
{

namespace
{

/** Blocked-mode per-PPU local queue bound: a storming chain fills this
 *  and then drops (with a stat) instead of growing without limit. */
constexpr std::size_t kMaxBlockedLocal = 256;

/**
 * A copy of @p cfg, or std::invalid_argument.  The constructor's
 * initializer list calls this before it builds anything from the config
 * (ClockDomain asserts a positive period).  Queue capacities are
 * load-bearing too: drop-oldest pops the front before pushing, so a
 * zero capacity would pop an empty ring.  These are host configuration
 * errors, not kernel-controlled conditions, so they throw rather than
 * degrade.
 */
PpfConfig
validated(const PpfConfig &cfg)
{
    if (cfg.numPpus == 0)
        throw std::invalid_argument("PpfConfig::numPpus must be positive");
    if (cfg.ppuPeriod == 0)
        throw std::invalid_argument("PpfConfig::ppuPeriod must be positive");
    if (cfg.obsQueueCapacity == 0)
        throw std::invalid_argument(
            "PpfConfig::obsQueueCapacity must be positive");
    if (cfg.reqQueueCapacity == 0)
        throw std::invalid_argument(
            "PpfConfig::reqQueueCapacity must be positive");
    if (cfg.stormWindowTicks > 0 && cfg.stormThreshold == 0)
        throw std::invalid_argument(
            "PpfConfig::stormThreshold must be positive when the storm "
            "throttle window is enabled");
    return cfg;
}

} // namespace

ProgrammablePrefetcher::ProgrammablePrefetcher(EventQueue &eq,
                                               GuestMemory &mem,
                                               const PpfConfig &cfg)
    : eq_(eq), mem_(mem), cfg_(validated(cfg)), ppuClock_(cfg_.ppuPeriod)
{
    globals_.resize(kGlobalRegs, 0);
    ppus_.resize(cfg_.numPpus);
    ppuStats_.resize(cfg_.numPpus);
}

int
ProgrammablePrefetcher::addFilter(const FilterEntry &e)
{
    int idx = filters_.add(e);
    lookahead_.emplace_back();
    return idx;
}

std::int32_t
ProgrammablePrefetcher::registerTag(KernelId kernel)
{
    tagKernels_.push_back(kernel);
    return static_cast<std::int32_t>(tagKernels_.size() - 1);
}

void
ProgrammablePrefetcher::setGlobal(unsigned idx, std::uint64_t value)
{
    globals_.at(idx) = value;
    if (idx >= globalsAllocated_)
        globalsAllocated_ = idx + 1;
}

unsigned
ProgrammablePrefetcher::allocGlobal(std::uint64_t value)
{
    unsigned idx = globalsAllocated_++;
    globals_.at(idx) = value;
    return idx;
}

std::uint64_t
ProgrammablePrefetcher::lookaheadOf(int idx) const
{
    return lookahead_.at(static_cast<std::size_t>(idx)).lookahead();
}

// ---------------------------------------------------------------------
// Snoop and fill ports
// ---------------------------------------------------------------------

void
ProgrammablePrefetcher::notifyDemand(Addr vaddr, bool is_load, bool hit,
                                     int stream_id)
{
    (void)hit;
    (void)stream_id;
    if (!is_load)
        return; // the filter snoops reads

    const Tick now = eq_.now();
    filters_.match(vaddr, [&](int idx, const FilterEntry &e) {
        if (e.timeSource)
            lookahead_[static_cast<std::size_t>(idx)].observeAccess(now);
        if (e.onLoad == kNoKernel)
            return;
        Observation obs;
        obs.vaddr = vaddr;
        obs.kernel = e.onLoad;
        obs.hasLine = false;
        if (e.timedStart) {
            obs.hasTimedStart = true;
            obs.timedStart = now;
            obs.timedOrigin = static_cast<std::int16_t>(idx);
        }
        enqueueObservation(std::move(obs));
    });
}

void
ProgrammablePrefetcher::notifyPrefetchFill(const LineRequest &req)
{
    const Tick now = eq_.now();

    // Chain-latency EWMA sampling (timed chains reaching a timed-end
    // range attribute the latency to the chain's origin entry).
    // Synthesised completions involve no memory access and are skipped.
    if (!req.synthesized && req.hasTimedStart && req.timedOrigin >= 0 &&
        static_cast<std::size_t>(req.timedOrigin) < lookahead_.size()) {
        bool ended = false;
        filters_.match(req.vaddr, [&](int, const FilterEntry &e) {
            if (e.timedEnd)
                ended = true;
        });
        if (ended) {
            lookahead_[static_cast<std::size_t>(req.timedOrigin)]
                .observeChain(now - req.timedStart);
            ++stats_.chainSamples;
        }
    }

    routeFill(req);
}

void
ProgrammablePrefetcher::routeFill(const LineRequest &req)
{
    // Blocked mode: fills whose chain stalled a PPU return to that PPU.
    if (cfg_.blocking && req.originPpu >= 0 &&
        static_cast<unsigned>(req.originPpu) < ppus_.size()) {
        Ppu &p = ppus_[static_cast<unsigned>(req.originPpu)];
        if (p.busy && p.pendingFills > 0) {
            --p.pendingFills;
            KernelId k = kNoKernel;
            if (req.cbKernel >= 0)
                k = req.cbKernel;
            else if (req.tag >= 0 &&
                     static_cast<std::size_t>(req.tag) < tagKernels_.size())
                k = tagKernels_[static_cast<std::size_t>(req.tag)];
            if (k != kNoKernel) {
                if (p.local.size() >= kMaxBlockedLocal) {
                    // A storming chain filled the local queue: drop the
                    // continuation (it is a hint) instead of growing.
                    ++stats_.localDropped;
                } else {
                    Observation obs;
                    obs.vaddr = req.vaddr;
                    obs.kernel = k;
                    obs.hasLine =
                        mem_.readLine(lineAlign(req.vaddr), obs.line);
                    obs.hasTimedStart = req.hasTimedStart;
                    obs.timedStart = req.timedStart;
                    obs.timedOrigin = req.timedOrigin;
                    p.local.push_back(std::move(obs));
                }
            }
            pumpBlocked(static_cast<unsigned>(req.originPpu));
            return;
        }
    }

    // Event-triggered routing: explicit callback kernel beats tag beats
    // address-range match (PF Ptr).
    KernelId k = kNoKernel;
    if (req.cbKernel >= 0) {
        k = req.cbKernel;
    } else if (req.tag >= 0 &&
               static_cast<std::size_t>(req.tag) < tagKernels_.size()) {
        k = tagKernels_[static_cast<std::size_t>(req.tag)];
    }

    auto makeObs = [&](KernelId kernel) {
        Observation obs;
        obs.vaddr = req.vaddr;
        obs.kernel = kernel;
        obs.hasLine = mem_.readLine(lineAlign(req.vaddr), obs.line);
        obs.hasTimedStart = req.hasTimedStart;
        obs.timedStart = req.timedStart;
        obs.timedOrigin = req.timedOrigin;
        if (!obs.hasLine) {
            ++stats_.obsNoData;
            return;
        }
        enqueueObservation(std::move(obs));
    };

    if (k != kNoKernel) {
        makeObs(k);
    } else {
        filters_.match(req.vaddr, [&](int, const FilterEntry &e) {
            if (e.onPrefetch != kNoKernel)
                makeObs(e.onPrefetch);
        });
    }
}

void
ProgrammablePrefetcher::notifyPrefetchDropped(const LineRequest &req)
{
    if (cfg_.blocking && req.originPpu >= 0 &&
        static_cast<unsigned>(req.originPpu) < ppus_.size()) {
        Ppu &p = ppus_[static_cast<unsigned>(req.originPpu)];
        if (p.busy && p.pendingFills > 0) {
            --p.pendingFills;
            pumpBlocked(static_cast<unsigned>(req.originPpu));
        }
    }
}

// ---------------------------------------------------------------------
// Observation queue and scheduler
// ---------------------------------------------------------------------

void
ProgrammablePrefetcher::enqueueObservation(Observation obs)
{
    if (faults_ != nullptr) {
        if (faults_->fire(FaultSite::kObsDrop))
            return; // lost before the queue ever saw it
        if (faults_->fire(FaultSite::kObsDelay)) {
            // Late delivery: re-enters past the fault sites, so an
            // injected delay can never re-draw itself.  The observation
            // outgrows an inline event, so it rides on the heap.
            eq_.scheduleIn(
                faults_->delayTicks(FaultSite::kObsDelay),
                [this, obs = std::make_unique<Observation>(std::move(obs))] {
                    enqueueObservationNow(std::move(*obs));
                });
            return;
        }
        if (faults_->fire(FaultSite::kObsOverflow) && !obsQueue_.empty()) {
            // Simulate capacity pressure: evict the oldest entry as a
            // real overflow would.
            obsQueue_.pop_front();
            ++stats_.obsDropped;
        }
    }
    enqueueObservationNow(std::move(obs));
}

void
ProgrammablePrefetcher::enqueueObservationNow(Observation obs)
{
    ++stats_.observations;
    if (obsQueue_.size() >= cfg_.obsQueueCapacity) {
        // Old observations are safely droppable (Section 4.3).
        obsQueue_.pop_front();
        ++stats_.obsDropped;
    }
    obsQueue_.push_back(std::move(obs));
    trySchedule();
}

int
ProgrammablePrefetcher::pickFreePpu()
{
    for (unsigned i = 0; i < ppus_.size(); ++i) {
        if (!ppus_[i].busy)
            return static_cast<int>(i);
    }
    return -1;
}

void
ProgrammablePrefetcher::trySchedule()
{
    while (!obsQueue_.empty()) {
        int ppu = pickFreePpu();
        if (ppu < 0)
            return;
        Observation obs = std::move(obsQueue_.front());
        obsQueue_.pop_front();
        startEvent(static_cast<unsigned>(ppu), std::move(obs));
    }
}

void
ProgrammablePrefetcher::startEvent(unsigned ppu, Observation obs)
{
    Ppu &p = ppus_[ppu];
    assert(!p.busy);
    p.busy = true;
    p.executing = true;
    p.lastAssign = eq_.now();
    p.obs = std::move(obs);

    const Tick start = ppuClock_.edgeAtOrAfter(
        eq_.now() + ppuClock_.cyclesToTicks(cfg_.dispatchOverhead));
    eq_.schedule(start, [this, ppu, start] { executeEvent(ppu, start); });
}

void
ProgrammablePrefetcher::executeEvent(unsigned ppu, Tick start)
{
    Ppu &p = ppus_[ppu];
    const Observation &obs = p.obs;
    if (!kernels_.valid(obs.kernel)) {
        releasePpu(ppu, start);
        return;
    }

    if (cfg_.quarantineThreshold > 0 && kernelQuarantined(obs.kernel, start)) {
        ++stats_.quarantineSkips;
        releasePpu(ppu, start);
        return;
    }

    // Snapshot the lookahead values the kernel can read (scratch buffer,
    // capacity reused across events).
    lookaheadScratch_.resize(lookahead_.size());
    for (std::size_t i = 0; i < lookahead_.size(); ++i)
        lookaheadScratch_[i] = lookahead_[i].lookahead();

    EventContext ctx;
    ctx.vaddr = obs.vaddr;
    ctx.hasLine = obs.hasLine;
    ctx.line = obs.line;
    ctx.globalRegs = globals_.data();
    ctx.lookahead = lookaheadScratch_.data();
    ctx.lookaheadEntries = static_cast<unsigned>(lookaheadScratch_.size());

    // The unit keeps the emits until its finish; the interpreter
    // appends straight into them.
    p.emits.clear();
    // Injected runaway: the kernel spins its whole watchdog budget and
    // produces nothing — pure lost PPU time, charged below like a real
    // step-limit exhaustion.
    const bool runaway =
        faults_ != nullptr && faults_->fire(FaultSite::kRunaway);
    const ExecResult res =
        runaway ? ExecResult{ExitReason::kStepLimit, kMaxKernelSteps, 0}
                : Interpreter::run(kernels_[obs.kernel], ctx, &p.emits);

    ++stats_.eventsRun;
    ++ppuStats_[ppu].events;
    if (res.exit == ExitReason::kTrapped)
        ++stats_.traps;
    else if (res.exit == ExitReason::kStepLimit)
        ++stats_.stepLimits;
    if (cfg_.quarantineThreshold > 0 && res.exit != ExitReason::kHalted)
        recordKernelFault(obs.kernel, start);

    const Tick finish =
        start + ppuClock_.cyclesToTicks(std::max<std::uint32_t>(res.cycles, 1));
    eq_.schedule(finish, [this, ppu, finish] { finishEvent(ppu, finish); });
}

void
ProgrammablePrefetcher::finishEvent(unsigned ppu, Tick finish)
{
    Ppu &p = ppus_[ppu];
    p.executing = false;
    const std::uint64_t releases = p.releases;

    // Copy what the requests need out of the unit's observation before
    // queueing any: in blocked mode a request-queue overflow can drop an
    // older chained request of this unit, and notifyPrefetchDropped ->
    // pumpBlocked then moves its next continuation onto it mid-loop.
    const KernelId kernel = p.obs.kernel;
    LineRequest chain;
    chain.hasTimedStart = p.obs.hasTimedStart;
    chain.timedStart = p.obs.timedStart;
    chain.timedOrigin = p.obs.timedOrigin;

    // Injected emit storm: the kernel's emit list replays storm-factor
    // times, as a buggy self-retriggering kernel would flood the queue.
    unsigned reps = 1;
    if (faults_ != nullptr && !p.emits.empty() &&
        faults_->fire(FaultSite::kEmitStorm)) {
        reps = faults_->config().stormFactor > 0
                   ? faults_->config().stormFactor
                   : 1;
        if (cfg_.quarantineThreshold > 0)
            recordKernelFault(kernel, finish);
    }

    bool chained = false;
    for (unsigned r = 0; r < reps; ++r) {
        for (const auto &e : p.emits) {
            // Blocked mode holds the unit on its chained requests, but
            // only while it is still this event's (see below): once a
            // drop here released it, the rest of the chain runs like an
            // unblocked one.
            const bool held = cfg_.blocking && p.releases == releases &&
                              (e.cbKernel != kNoKernel || e.tag >= 0);
            if (held) {
                ++p.pendingFills;
                chained = true;
            }
            queueRequest(e, chain, held ? static_cast<int>(ppu) : -1);
        }
    }
    stats_.prefetchesEmitted += p.emits.size() * reps;
    const bool any = !p.emits.empty();

    if (any && kick_)
        kick_();

    // A drop, while queueing or in the kick, can settle the unit's last
    // chained request at once, and notifyPrefetchDropped -> pumpBlocked
    // then releases the unit, maybe handing it the next waiting
    // observation.  Either way the unit is no longer this event's; a
    // chain it queued still counts as a stall, if one of no length.
    if (p.releases != releases) {
        if (chained)
            ++stats_.blockedStalls;
        return;
    }

    // The kick can deliver this unit's fills at once, and one may have
    // resumed it on a continuation (executing): it stays busy with that.
    if (cfg_.blocking && (chained || p.executing || p.pendingFills > 0 ||
                          !p.local.empty())) {
        // Blocked mode: the unit stalls until its chain resolves.
        ++stats_.blockedStalls;
        pumpBlocked(ppu);
        return;
    }

    releasePpu(ppu, finish);
}

void
ProgrammablePrefetcher::releasePpu(unsigned ppu, Tick now)
{
    Ppu &p = ppus_[ppu];
    assert(p.busy);
    ppuStats_[ppu].busyTicks += now > p.lastAssign ? now - p.lastAssign : 0;
    ++p.releases;
    p.busy = false;
    p.executing = false;
    p.pendingFills = 0;
    p.local.clear();
    trySchedule();
}

void
ProgrammablePrefetcher::pumpBlocked(unsigned ppu)
{
    Ppu &p = ppus_[ppu];
    if (!p.busy || p.executing)
        return;
    if (!p.local.empty()) {
        p.obs = std::move(p.local.front());
        p.local.pop_front();
        p.executing = true;
        const Tick start = ppuClock_.edgeAtOrAfter(eq_.now());
        eq_.schedule(start, [this, ppu, start] { executeEvent(ppu, start); });
        return;
    }
    if (p.pendingFills == 0)
        releasePpu(ppu, eq_.now());
}

// ---------------------------------------------------------------------
// Prefetch request queue
// ---------------------------------------------------------------------

void
ProgrammablePrefetcher::queueRequest(const PrefetchEmit &e, LineRequest req,
                                     int origin_ppu)
{
    req.vaddr = e.vaddr;
    req.isPrefetch = true;
    req.tag = e.tag;
    req.cbKernel = e.cbKernel;
    req.originPpu = static_cast<std::int16_t>(origin_ppu);

    if (faults_ != nullptr) {
        // Target corruption keeps the callback/tag intact on purpose:
        // the misdirected fill still triggers its kernel, on whatever
        // wrong line it fetched — the hardest "pure hint" case.
        if (faults_->fire(FaultSite::kReqCorruptIn))
            req.vaddr = corruptMapped(faults_->draw(FaultSite::kReqCorruptIn));
        if (faults_->fire(FaultSite::kReqCorruptOut)) {
            req.vaddr =
                corruptUnmapped(faults_->draw(FaultSite::kReqCorruptOut));
        }
        if (faults_->fire(FaultSite::kReqDrop)) {
            if (cfg_.blocking && req.originPpu >= 0)
                notifyPrefetchDropped(req);
            return;
        }
        if (faults_->fire(FaultSite::kReqDelay)) {
            eq_.scheduleIn(faults_->delayTicks(FaultSite::kReqDelay),
                           [this, req]() mutable {
                               queueRequestNow(std::move(req));
                               // finishEvent's kick already ran; a late
                               // request must prod the port itself.
                               if (kick_)
                                   kick_();
                           });
            return;
        }
        if (faults_->fire(FaultSite::kReqOverflow) && !reqQueue_.empty()) {
            LineRequest old = std::move(reqQueue_.front());
            reqQueue_.pop_front();
            ++stats_.reqDropped;
            if (cfg_.blocking && old.originPpu >= 0)
                notifyPrefetchDropped(old);
        }
    }

    queueRequestNow(std::move(req));
}

void
ProgrammablePrefetcher::queueRequestNow(LineRequest req)
{
    // Event-storm backpressure (config-gated): past the per-window
    // budget, requests drop with a stat until the window rolls over.
    if (cfg_.stormWindowTicks > 0) {
        const std::uint64_t window = eq_.now() / cfg_.stormWindowTicks;
        if (window != stormWindow_) {
            stormWindow_ = window;
            stormCount_ = 0;
            throttled_ = false;
        }
        if (throttled_ || ++stormCount_ > cfg_.stormThreshold) {
            if (!throttled_) {
                throttled_ = true;
                ++stats_.throttleEntries;
            }
            ++stats_.throttleDropped;
            if (cfg_.blocking && req.originPpu >= 0)
                notifyPrefetchDropped(req);
            return;
        }
    }

    if (reqQueue_.size() >= cfg_.reqQueueCapacity) {
        // Drop the oldest request (Section 4.6); release any blocked
        // PPU waiting on it.
        LineRequest old = std::move(reqQueue_.front());
        reqQueue_.pop_front();
        ++stats_.reqDropped;
        if (cfg_.blocking && old.originPpu >= 0)
            notifyPrefetchDropped(old);
    }
    reqQueue_.push_back(std::move(req));
}

Addr
ProgrammablePrefetcher::corruptMapped(std::uint64_t bits) const
{
    const auto &regions = mem_.regions();
    if (regions.empty())
        return corruptUnmapped(bits);
    const auto &r = regions[bits % regions.size()];
    const Addr offset = r.size > 0 ? (bits >> 20) % r.size : 0;
    return lineAlign(r.base + offset);
}

Addr
ProgrammablePrefetcher::corruptUnmapped(std::uint64_t bits) const
{
    // Regions allocate upward from GuestMemory::kGuestBase, so a high
    // candidate is almost always free; step until it is.
    Addr a = 0x7F00'0000'0000ULL | (lineAlign(bits) & 0x00FF'FFFF'FFC0ULL);
    while (mem_.contains(a, kLineBytes))
        a += Addr{1} << 30;
    return a;
}

// ---------------------------------------------------------------------
// Quarantine watchdog
// ---------------------------------------------------------------------

bool
ProgrammablePrefetcher::kernelQuarantined(KernelId k, Tick now)
{
    const auto idx = static_cast<std::size_t>(k);
    if (idx >= kernelHealth_.size())
        return false;
    KernelHealth &h = kernelHealth_[idx];
    if (h.quarantinedUntil == 0)
        return false;
    if (now < h.quarantinedUntil)
        return true;
    // Backoff expired: re-enable with a clean fault count.  The backoff
    // level survives, so a kernel that immediately misbehaves again is
    // quarantined for twice as long.
    h.quarantinedUntil = 0;
    h.faults = 0;
    ++stats_.quarantineReenables;
    logQuarantine(now, k, false, h.backoffLevel);
    return false;
}

void
ProgrammablePrefetcher::recordKernelFault(KernelId k, Tick now)
{
    const auto idx = static_cast<std::size_t>(k);
    if (idx >= kernelHealth_.size())
        kernelHealth_.resize(kernels_.size() > idx + 1 ? kernels_.size()
                                                       : idx + 1);
    KernelHealth &h = kernelHealth_[idx];
    if (h.quarantinedUntil != 0)
        return; // already killed; the fault is part of the same episode
    if (++h.faults < cfg_.quarantineThreshold)
        return;

    const unsigned level = h.backoffLevel < cfg_.quarantineBackoffMax
                               ? h.backoffLevel
                               : cfg_.quarantineBackoffMax;
    h.quarantinedUntil = now + (cfg_.quarantineBaseTicks << level);
    ++h.backoffLevel;
    ++stats_.quarantineKills;
    logQuarantine(now, k, true, level);
}

void
ProgrammablePrefetcher::logQuarantine(Tick tick, KernelId k, bool kill,
                                      unsigned level)
{
    // FNV-1a over the transition tuple: coverage never saturates.
    auto mix = [this](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            quarantineLogHash_ ^= (v >> (i * 8)) & 0xFF;
            quarantineLogHash_ *= 0x100000001B3ULL;
        }
    };
    mix(tick);
    mix(static_cast<std::uint64_t>(k));
    mix(kill ? 1 : 0);
    mix(level);
}

LineRequest
ProgrammablePrefetcher::popRequest()
{
    LineRequest r = std::move(reqQueue_.front());
    reqQueue_.pop_front();
    return r;
}

} // namespace epf

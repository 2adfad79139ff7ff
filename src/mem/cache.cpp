#include "mem/cache.hpp"

#include <cassert>

namespace epf
{

Cache::Cache(EventQueue &eq, const CacheParams &params, MemLevel &parent)
    : eq_(eq), p_(params), parent_(parent)
{
    assert(p_.ways > 0);
    numSets_ = static_cast<unsigned>(p_.sizeBytes / (kLineBytes * p_.ways));
    assert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0 &&
           "set count must be a power of two");
    lines_.resize(static_cast<std::size_t>(numSets_) * p_.ways);
    mshrs_.resize(p_.mshrs);
    freeMshrs_ = p_.mshrs;
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> kLineShift) & (numSets_ - 1));
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *set = &lines_[static_cast<std::size_t>(setIndex(line_addr)) * p_.ways];
    for (unsigned w = 0; w < p_.ways; ++w) {
        if (set[w].valid && set[w].lineAddr == line_addr)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::hasLine(Addr paddr) const
{
    return findLine(lineAlign(paddr)) != nullptr;
}

Cache::Line &
Cache::pickVictim(Addr line_addr)
{
    Line *set = &lines_[static_cast<std::size_t>(setIndex(line_addr)) * p_.ways];
    Line *victim = &set[0];
    for (unsigned w = 0; w < p_.ways; ++w) {
        if (!set[w].valid)
            return set[w];
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    return *victim;
}

Cache::Mshr *
Cache::findMshr(Addr line_addr)
{
    for (auto &m : mshrs_) {
        if (m.valid && m.lineAddr == line_addr)
            return &m;
    }
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr()
{
    if (freeMshrs_ == 0)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            // Recycle in place: waiters is empty (cleared at release)
            // but keeps its capacity.
            m.valid = true;
            m.lineAddr = 0;
            m.wasStore = false;
            m.demanded = false;
            m.req = LineRequest{};
            --freeMshrs_;
            return &m;
        }
    }
    return nullptr;
}

void
Cache::releaseMshr(Mshr &m)
{
    m.valid = false;
    m.waiters.clear();
    m.req = LineRequest{};
    ++freeMshrs_;
    if (mshrFreeHook_)
        mshrFreeHook_();
    drainOverflow();
}

void
Cache::touchForDemand(Line &line)
{
    line.lru = ++lruClock_;
    if (line.prefetched && !line.used) {
        line.used = true;
        ++stats_.pfUsed;
    }
}

Cache::DemandResult
Cache::demandAccess(bool is_load, Addr vaddr, Addr paddr, DoneFn &&done)
{
    const Addr line_addr = lineAlign(paddr);

    if (Line *line = findLine(line_addr)) {
        if (is_load) {
            ++stats_.loads;
            ++stats_.loadHits;
        } else {
            ++stats_.stores;
            ++stats_.storeHits;
            line->dirty = true;
            if (coherence_ != nullptr)
                coherence_->onWrite(coherencePort_, line_addr);
        }
        touchForDemand(*line);
        eq_.scheduleIn(p_.accessLatency, std::move(done));
        return DemandResult::Hit;
    }

    if (Mshr *m = findMshr(line_addr)) {
        if (is_load)
            ++stats_.loads;
        else {
            ++stats_.stores;
            m->wasStore = true;
        }
        ++stats_.demandMerges;
        if (m->req.isPrefetch)
            m->demanded = true;
        m->waiters.push_back(std::move(done));
        return DemandResult::Merged;
    }

    Mshr *m = allocMshr();
    if (m == nullptr) {
        ++stats_.mshrRejects;
        return DemandResult::NoMshr;
    }

    if (is_load)
        ++stats_.loads;
    else {
        ++stats_.stores;
        m->wasStore = true;
    }

    m->lineAddr = line_addr;
    m->waiters.push_back(std::move(done));
    m->req.paddr = line_addr;
    m->req.vaddr = lineAlign(vaddr);
    m->req.isPrefetch = false;

    // The forward reads m->req at fire time.  The MSHR cannot be
    // recycled before then (it is only released by the fill this very
    // forward requests), and the levels below only look at fields a
    // concurrent tag adoption never changes (paddr, isPrefetch).
    eq_.scheduleIn(p_.accessLatency, [this, m] {
        parent_.readLine(m->req, [this, m] { handleFill(*m); });
    });
    return DemandResult::Miss;
}

Cache::PrefetchResult
Cache::prefetchAccess(const LineRequest &req)
{
    const Addr line_addr = lineAlign(req.paddr);

    if (findLine(line_addr) != nullptr) {
        ++stats_.pfDropPresent;
        return PrefetchResult::Present;
    }
    if (Mshr *m = findMshr(line_addr)) {
        // The line is already being fetched.  Keep the event chain
        // alive: the MSHR adopts this request's memory-request tag /
        // callback so the fill still triggers the follow-on event
        // (Section 4.7 — the tag lives in the MSHR).
        if (m->req.tag < 0 && m->req.cbKernel < 0 &&
            (req.tag >= 0 || req.cbKernel >= 0)) {
            m->req.tag = req.tag;
            m->req.cbKernel = req.cbKernel;
            m->req.vaddr = lineAlign(req.vaddr);
            m->req.hasTimedStart = req.hasTimedStart;
            m->req.timedStart = req.timedStart;
            m->req.timedOrigin = req.timedOrigin;
            m->req.originPpu = req.originPpu;
            return PrefetchResult::Issued;
        }
        return PrefetchResult::Merged;
    }

    Mshr *m = allocMshr();
    if (m == nullptr)
        return PrefetchResult::NoMshr;

    m->lineAddr = line_addr;
    m->req = req;
    m->req.paddr = line_addr;
    m->req.vaddr = lineAlign(req.vaddr);
    m->req.isPrefetch = true;

    eq_.scheduleIn(p_.accessLatency, [this, m] {
        parent_.readLine(m->req, [this, m] { handleFill(*m); });
    });
    return PrefetchResult::Issued;
}

Cache::Line &
Cache::installLine(Addr line_addr, bool dirty, bool prefetched)
{
    Line &victim = pickVictim(line_addr);
    if (victim.valid) {
        if (victim.prefetched && !victim.used)
            ++stats_.pfUnusedEvicted;
        if (victim.dirty) {
            ++stats_.writebacks;
            LineRequest wb;
            wb.paddr = victim.lineAddr;
            parent_.writeLine(wb);
        }
        if (coherence_ != nullptr)
            coherence_->onEvict(coherencePort_, victim.lineAddr);
    }
    victim.valid = true;
    victim.dirty = dirty;
    victim.prefetched = prefetched;
    victim.used = false;
    victim.lineAddr = line_addr;
    victim.lru = ++lruClock_;
    return victim;
}

void
Cache::handleFill(Mshr &m)
{
    const bool pf = m.req.isPrefetch;
    Line &line = installLine(m.lineAddr, m.wasStore, pf);
    if (coherence_ != nullptr)
        coherence_->onFill(coherencePort_, m.lineAddr, m.wasStore);

    if (pf) {
        ++stats_.prefetchFills;
        if (m.demanded) {
            // A demand access arrived while the prefetch was in flight:
            // late, but the fetched line is used.
            line.used = true;
            ++stats_.pfUsed;
            ++stats_.pfUsedLate;
        }
    }
    // Fills whose MSHR carries a memory-request tag or callback kernel
    // trigger the prefetcher's event — including demand fills that
    // adopted the metadata from a merged prefetch.
    if (listener_ != nullptr &&
        (pf || m.req.tag >= 0 || m.req.cbKernel >= 0))
        listener_->notifyPrefetchFill(m.req);

    // Swap the waiters into a reusable scratch buffer (keeps both
    // vectors' capacities alive), release the MSHR — which may run the
    // free hook and drain the overflow queue — then schedule the
    // waiters in merge order at the fill tick.
    assert(fillWaiters_.empty());
    fillWaiters_.swap(m.waiters);
    releaseMshr(m);
    for (auto &w : fillWaiters_)
        eq_.scheduleIn(0, std::move(w));
    fillWaiters_.clear();
}

bool
Cache::invalidateLine(Addr line_addr)
{
    Line *line = findLine(line_addr);
    if (line == nullptr)
        return false;
    if (line->prefetched && !line->used)
        ++stats_.pfUnusedEvicted;
    if (line->dirty) {
        ++stats_.writebacks;
        LineRequest wb;
        wb.paddr = line->lineAddr;
        parent_.writeLine(wb);
    }
    line->valid = false;
    line->dirty = false;
    ++stats_.invalidations;
    return true;
}

void
Cache::readLine(const LineRequest &req, DoneFn done)
{
    const Addr line_addr = lineAlign(req.paddr);
    ++stats_.lowerReads;

    if (Line *line = findLine(line_addr)) {
        ++stats_.lowerReadHits;
        if (line->prefetched && !line->used) {
            line->used = true;
            ++stats_.pfUsed;
        }
        line->lru = ++lruClock_;
        eq_.scheduleIn(p_.accessLatency, std::move(done));
        return;
    }

    if (Mshr *m = findMshr(line_addr)) {
        if (!req.isPrefetch)
            m->demanded = true;
        m->waiters.push_back(std::move(done));
        return;
    }

    Mshr *m = allocMshr();
    if (m == nullptr) {
        // Input queue: hold the request until an MSHR frees up.
        overflow_.emplace_back(req, std::move(done));
        ++stats_.mshrRejects;
        return;
    }

    m->lineAddr = line_addr;
    m->req = req;
    m->req.paddr = line_addr;
    m->waiters.push_back(std::move(done));

    eq_.scheduleIn(p_.accessLatency, [this, m] {
        parent_.readLine(m->req, [this, m] { handleFill(*m); });
    });
}

void
Cache::writeLine(const LineRequest &req)
{
    const Addr line_addr = lineAlign(req.paddr);
    if (Line *line = findLine(line_addr)) {
        line->dirty = true;
        line->lru = ++lruClock_;
        return;
    }
    // Full-line writeback allocate: no fetch required.
    installLine(line_addr, true, false);
}

void
Cache::drainOverflow()
{
    while (!overflow_.empty() && freeMshrs_ > 0) {
        auto [req, done] = std::move(overflow_.front());
        overflow_.pop_front();
        readLine(req, std::move(done));
    }
}

} // namespace epf

#include "mem/core_port.hpp"

#include <cassert>

namespace epf
{

CorePort::CorePort(EventQueue &eq, GuestMemory &mem, Uncore &uncore,
                   const MemParams &params, unsigned portId)
    : eq_(eq), mem_(mem), p_(params), portId_(portId)
{
    l1_ = std::make_unique<Cache>(eq_, p_.l1, uncore.port(portId_));
    tlb_ = std::make_unique<Tlb>(eq_, p_.tlb, uncore.pageTable(),
                                 uncore.port(portId_));

    l1_->setMshrFreeHook([this] { tryIssuePrefetches(); });

    if (uncore.ports() > 1) {
        uncore.attachL1(portId_, l1_.get());
        l1_->setCoherence(&uncore, portId_);
    }
}

void
CorePort::setListener(MemoryListener *l)
{
    listener_ = l;
    l1_->setListener(l);
}

void
CorePort::load(Addr vaddr, int stream_id, DoneFn done)
{
    ++stats_.coreLoads;
    demandAccess(true, vaddr, stream_id, std::move(done));
}

void
CorePort::store(Addr vaddr, int stream_id, DoneFn done)
{
    ++stats_.coreStores;
    demandAccess(false, vaddr, stream_id, std::move(done));
}

void
CorePort::demandAccess(bool is_load, Addr vaddr, int stream_id,
                       DoneFn done)
{
    assert(mem_.contains(vaddr) && "core accessed an unmapped address");
    // The whole request rides in a pooled transaction; every hop below
    // captures just the pointer.
    DemandTxn *txn = demandTxns_.acquire();
    txn->vaddr = vaddr;
    txn->paddr = 0;
    txn->streamId = stream_id;
    txn->isLoad = is_load;
    txn->done = std::move(done);
    tlb_->translate(vaddr, [this, txn](Addr paddr, bool fault) {
        assert(!fault && "demand access faulted");
        (void)fault;
        txn->paddr = paddr;
        attemptDemand(txn);
    });
}

void
CorePort::attemptDemand(DemandTxn *txn)
{
    auto res = l1_->demandAccess(txn->isLoad, txn->vaddr, txn->paddr,
                                 std::move(txn->done));
    if (res == Cache::DemandResult::NoMshr) {
        // txn->done was not consumed; retry with the same transaction.
        if (txn->isLoad)
            ++stats_.loadRetries;
        else
            ++stats_.storeRetries;
        eq_.scheduleIn(p_.corePeriod, [this, txn] { attemptDemand(txn); });
        return;
    }
    if (listener_ != nullptr) {
        bool hit = res == Cache::DemandResult::Hit;
        listener_->notifyDemand(txn->vaddr, txn->isLoad, hit, txn->streamId);
        // Baseline prefetchers enqueue candidates during the notify;
        // give the issue path a chance to drain them immediately.
        tryIssuePrefetches();
    }
    demandTxns_.release(txn);
}

void
CorePort::swPrefetch(Addr vaddr)
{
    ++stats_.swPrefetches;
    if (!mem_.contains(vaddr)) {
        ++stats_.swPrefetchDrops;
        return;
    }
    tlb_->translate(vaddr, [this, vaddr](Addr paddr, bool fault) {
        if (fault) {
            ++stats_.swPrefetchDrops;
            return;
        }
        LineRequest req;
        req.vaddr = vaddr;
        req.paddr = paddr;
        req.isPrefetch = true;
        auto res = l1_->prefetchAccess(req);
        if (res == Cache::PrefetchResult::NoMshr)
            ++stats_.swPrefetchDrops;
    });
}

void
CorePort::tryIssuePrefetches()
{
    auto mshr_available = [this] {
        return l1_->freeMshrCount() > p_.demandReservedMshrs;
    };

    // Drain translated-but-blocked requests first.
    while (!pfSkid_.empty() && mshr_available()) {
        LineRequest req = pfSkid_.front();
        pfSkid_.pop_front();
        issueTranslatedPrefetch(req);
    }

    if (pfSource_ == nullptr)
        return;

    while (mshr_available() && pfSkid_.empty() &&
           pfTranslations_ < kMaxPfTranslations && pfSource_->hasRequest()) {
        LineRequest req = pfSource_->popRequest();
        ++pfTranslations_;
        tlb_->translate(req.vaddr, [this, req](Addr paddr,
                                               bool fault) mutable {
            --pfTranslations_;
            // Injected spurious translation failure: the prefetch takes
            // the normal fault-drop path below.
            if (!fault && faults_ != nullptr &&
                faults_->fire(FaultSite::kTlbFault))
                fault = true;
            if (fault) {
                ++stats_.pfDropFault;
                if (listener_ != nullptr)
                    listener_->notifyPrefetchDropped(req);
                // More requests may be waiting behind this one.
                eq_.scheduleIn(0, [this] { tryIssuePrefetches(); });
                return;
            }
            req.paddr = paddr;
            issueTranslatedPrefetch(req);
            eq_.scheduleIn(0, [this] { tryIssuePrefetches(); });
        });
    }
}

void
CorePort::issueTranslatedPrefetch(const LineRequest &req)
{
    // Re-check the demand reservation at issue time: the free-MSHR
    // state may have changed while this request's translation was in
    // flight, and landing it anyway dips into the MSHRs reserved for
    // demand misses.  Skidded requests re-issue from the MSHR-free hook
    // once the file drains.
    if (l1_->freeMshrCount() <= p_.demandReservedMshrs) {
        skidOrDrop(req);
        return;
    }
    switch (l1_->prefetchAccess(req)) {
      case Cache::PrefetchResult::Issued:
        ++stats_.pfIssued;
        break;
      case Cache::PrefetchResult::Present:
        ++stats_.pfDropPresent;
        // The data is already resident: deliver the completion event
        // immediately so dependent event chains keep running (the
        // address filter would equally have seen the demand load).
        if (listenerAwaits(req)) {
            LineRequest synth = req;
            synth.synthesized = true;
            listener_->notifyPrefetchFill(synth);
        }
        break;
      case Cache::PrefetchResult::Merged:
        ++stats_.pfDropMerged;
        if (listenerAwaits(req))
            listener_->notifyPrefetchDropped(req);
        break;
      case Cache::PrefetchResult::NoMshr:
        skidOrDrop(req);
        break;
    }
}

void
CorePort::skidOrDrop(const LineRequest &req)
{
    if (pfSkid_.size() < kMaxPfSkid) {
        pfSkid_.push_back(req);
        return;
    }
    ++stats_.pfSkidDropped;
    if (listenerAwaits(req))
        listener_->notifyPrefetchDropped(req);
}

} // namespace epf

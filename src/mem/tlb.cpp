#include "mem/tlb.hpp"

#include <algorithm>
#include <cassert>

namespace epf
{

Addr
PageTable::translate(Addr vaddr)
{
    assert(mapped(vaddr));
    const Addr vpn = pageNumber(vaddr);
    auto it = vpnToPpn_.find(vpn);
    if (it == vpnToPpn_.end()) {
        Addr ppn = (nextSeq_++ * kOddMultiplier) & kPpnMask;
        it = vpnToPpn_.emplace(vpn, ppn).first;
    }
    return (it->second << kPageShift) | (vaddr & (kPageBytes - 1));
}

Tlb::Tlb(EventQueue &eq, const TlbParams &params, PageTable &pt,
         MemLevel &walk_mem)
    : eq_(eq), p_(params), pt_(pt), walkMem_(walk_mem)
{
    l1Vpn_.resize(p_.l1Entries);
    l1Ppn_.resize(p_.l1Entries);
    l1Lru_.resize(p_.l1Entries);
    assert(p_.l2Entries % p_.l2Ways == 0);
    l2Sets_ = p_.l2Entries / p_.l2Ways;
    assert((l2Sets_ & (l2Sets_ - 1)) == 0);
    l2_.resize(p_.l2Entries);
}

void
Tlb::flush()
{
    l1Valid_ = 0;
    for (auto &e : l2_)
        e.valid = false;
}

bool
Tlb::lookupL1(Addr vpn, Addr &ppn)
{
    // The first match in index order wins: a walk with several waiters
    // inserts its vpn once per waiter.
    for (std::size_t i = 0; i < l1Valid_; ++i) {
        if (l1Vpn_[i] == vpn) {
            l1Lru_[i] = ++lruClock_;
            ppn = l1Ppn_[i];
            return true;
        }
    }
    return false;
}

bool
Tlb::lookupL2(Addr vpn, Addr &ppn)
{
    Entry *set = &l2_[(vpn & (l2Sets_ - 1)) * p_.l2Ways];
    for (unsigned w = 0; w < p_.l2Ways; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].lru = ++lruClock_;
            ppn = set[w].ppn;
            return true;
        }
    }
    return false;
}

void
Tlb::insertL1(Addr vpn, Addr ppn)
{
    // Fill the first free slot; once full, replace the least recently
    // used entry (the lowest index among equals).
    std::size_t slot = l1Valid_;
    if (slot < l1Lru_.size())
        ++l1Valid_;
    else
        slot = static_cast<std::size_t>(
            std::min_element(l1Lru_.begin(), l1Lru_.end()) - l1Lru_.begin());
    l1Vpn_[slot] = vpn;
    l1Ppn_[slot] = ppn;
    l1Lru_[slot] = ++lruClock_;
}

void
Tlb::insertL2(Addr vpn, Addr ppn)
{
    Entry *set = &l2_[(vpn & (l2Sets_ - 1)) * p_.l2Ways];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < p_.l2Ways; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    *victim = Entry{true, vpn, ppn, ++lruClock_};
}

void
Tlb::translate(Addr vaddr, TranslateFn cb)
{
    const Addr vpn = pageNumber(vaddr);
    const Addr offset = vaddr & (kPageBytes - 1);
    Addr ppn;

    if (lookupL1(vpn, ppn)) {
        ++stats_.l1Hits;
        cb((ppn << kPageShift) | offset, false);
        return;
    }
    if (lookupL2(vpn, ppn)) {
        ++stats_.l2Hits;
        insertL1(vpn, ppn);
        // Hot path: park the callback in a pooled PendingHit so the
        // scheduled event is a single pointer capture instead of a
        // closure holding the whole TranslateFn.
        PendingHit *ph = pendingHits_.acquire();
        ph->paddr = (ppn << kPageShift) | offset;
        ph->cb = std::move(cb);
        eq_.scheduleIn(p_.l2Latency, [this, ph] {
            TranslateFn fn = std::move(ph->cb);
            const Addr paddr = ph->paddr;
            pendingHits_.release(ph);
            fn(paddr, false);
        });
        return;
    }
    startWalk(vpn, [this, vpn, offset, cb = std::move(cb)](Addr, bool) {
        // Walk finished; resolve mapping (or fault) at the leaf.
        Addr probe = (vpn << kPageShift) | offset;
        if (!pt_.mapped(probe)) {
            ++stats_.faults;
            cb(0, true);
            return;
        }
        Addr paddr = pt_.translate(probe);
        insertL1(vpn, paddr >> kPageShift);
        insertL2(vpn, paddr >> kPageShift);
        cb(paddr, false);
    });
}

void
Tlb::startWalk(Addr vpn, TranslateFn cb)
{
    // Join an active or queued walk for the same page if one exists.
    for (auto &w : activeWalks_) {
        if (w.vpn == vpn) {
            w.waiters.push_back(std::move(cb));
            return;
        }
    }
    for (auto &w : queuedWalks_) {
        if (w.vpn == vpn) {
            w.waiters.push_back(std::move(cb));
            return;
        }
    }
    Walk w;
    w.vpn = vpn;
    w.waiters.push_back(std::move(cb));
    queuedWalks_.push_back(std::move(w));
    pumpWalkQueue();
}

void
Tlb::pumpWalkQueue()
{
    while (!queuedWalks_.empty() && activeWalks_.size() < p_.maxWalks) {
        activeWalks_.push_back(std::move(queuedWalks_.front()));
        queuedWalks_.pop_front();
        ++stats_.walks;
        issueWalkReads(activeWalks_.size() - 1, p_.walkReads);
    }
}

void
Tlb::issueWalkReads(std::size_t walk_idx, unsigned remaining)
{
    if (remaining == 0) {
        finishWalk(walk_idx);
        return;
    }
    // Fabricated PTE address in a reserved physical range; reads go
    // through the cache level the walker is attached to, so walks enjoy
    // caching of upper levels just like real table walks.
    const Addr vpn = activeWalks_[walk_idx].vpn;
    LineRequest req;
    req.paddr = 0xF0'0000'0000ULL + ((vpn * p_.walkReads + remaining) << 3);
    req.vaddr = req.paddr;
    walkMem_.readLine(req, [this, vpn, remaining] {
        // The walk vector may have shifted; find by vpn.
        for (std::size_t i = 0; i < activeWalks_.size(); ++i) {
            if (activeWalks_[i].vpn == vpn) {
                issueWalkReads(i, remaining - 1);
                return;
            }
        }
    });
}

void
Tlb::finishWalk(std::size_t walk_idx)
{
    Walk done = std::move(activeWalks_[walk_idx]);
    activeWalks_.erase(activeWalks_.begin() +
                       static_cast<std::ptrdiff_t>(walk_idx));
    for (auto &cb : done.waiters)
        cb(0, false); // resolution happens in the translate() closure
    pumpWalkQueue();
}

} // namespace epf

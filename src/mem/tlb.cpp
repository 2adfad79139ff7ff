#include "mem/tlb.hpp"

#include <bit>
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
    assert(p_.l1Entries > 0);
    l1_.resize(p_.l1Entries);
    // At most a quarter full, so a probe rarely leaves its bucket.
    const std::size_t buckets =
        std::bit_ceil(std::size_t{4} * p_.l1Entries);
    l1Index_.resize(buckets);
    l1IndexShift_ = 64 - std::countr_zero(buckets);
    assert(p_.l2Entries % p_.l2Ways == 0);
    l2Sets_ = p_.l2Entries / p_.l2Ways;
    assert((l2Sets_ & (l2Sets_ - 1)) == 0);
    l2_.resize(p_.l2Entries);
}

std::size_t
Tlb::l1Home(Addr vpn) const
{
    // Fibonacci hashing: the top bits of vpn * 2^64 / phi.
    return static_cast<std::size_t>((vpn * 0x9E3779B97F4A7C15ULL) >>
                                    l1IndexShift_);
}

std::size_t
Tlb::l1IndexFind(Addr vpn) const
{
    const std::size_t mask = l1Index_.size() - 1;
    std::size_t i = l1Home(vpn);
    while (l1Index_[i].vpn != kNoVpn && l1Index_[i].vpn != vpn)
        i = (i + 1) & mask;
    return i;
}

void
Tlb::l1IndexRemove(Addr vpn)
{
    std::size_t hole = l1IndexFind(vpn);
    assert(l1Index_[hole].vpn == vpn);
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless that would move one ahead of its home bucket.
    const std::size_t mask = l1Index_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; l1Index_[j].vpn != kNoVpn;
         j = (j + 1) & mask) {
        if (((j - l1Home(l1Index_[j].vpn)) & mask) >= ((j - hole) & mask)) {
            l1Index_[hole] = l1Index_[j];
            hole = j;
        }
    }
    l1Index_[hole] = L1IndexEntry{};
}

void
Tlb::touchL1(std::uint32_t slot)
{
    if (slot == l1Newest_)
        return;
    L1Slot &s = l1_[slot];
    l1_[s.prev].next = s.next;
    if (slot == l1Oldest_)
        l1Oldest_ = s.prev;
    else
        l1_[s.next].prev = s.prev;
    s.next = l1Newest_;
    l1_[l1Newest_].prev = slot;
    l1Newest_ = slot;
}

bool
Tlb::lookupL1(Addr vpn, Addr &ppn)
{
    const L1IndexEntry &ix = l1Index_[l1IndexFind(vpn)];
    if (ix.vpn != vpn)
        return false;
    touchL1(ix.slot);
    ppn = l1_[ix.slot].ppn;
    return true;
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
    assert(l1Index_[l1IndexFind(vpn)].vpn != vpn &&
           "a vpn is resident in the L1 at most once");
    // Fill the first free slot; once full, replace the least recently
    // used one.
    std::uint32_t slot;
    if (l1Valid_ < l1_.size()) {
        slot = static_cast<std::uint32_t>(l1Valid_++);
        if (slot == 0) {
            l1Oldest_ = 0;
        } else {
            l1_[slot].next = l1Newest_;
            l1_[l1Newest_].prev = slot;
        }
        l1Newest_ = slot;
    } else {
        slot = l1Oldest_;
        l1IndexRemove(l1_[slot].vpn);
        touchL1(slot);
    }
    l1_[slot].vpn = vpn;
    l1_[slot].ppn = ppn;
    l1Index_[l1IndexFind(vpn)] = L1IndexEntry{vpn, slot};
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
    startWalk(vpn, offset, std::move(cb));
}

void
Tlb::startWalk(Addr vpn, Addr offset, TranslateFn cb)
{
    // Join an active or queued walk for the same page if one exists.
    for (auto &w : activeWalks_) {
        if (w.vpn == vpn) {
            w.waiters.push_back({offset, std::move(cb)});
            return;
        }
    }
    for (auto &w : queuedWalks_) {
        if (w.vpn == vpn) {
            w.waiters.push_back({offset, std::move(cb)});
            return;
        }
    }
    Walk w;
    w.vpn = vpn;
    w.waiters.push_back({offset, std::move(cb)});
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
    // The leaf holds one translation for the page: fill the L1 and L2
    // once, from the first waiter whose address is mapped, before any
    // callback runs, so a callback that translates the page again hits.
    const Addr base = done.vpn << kPageShift;
    Addr ppn = 0;
    for (const auto &w : done.waiters) {
        if (pt_.mapped(base | w.offset)) {
            ppn = pt_.translate(base | w.offset) >> kPageShift;
            insertL1(done.vpn, ppn);
            insertL2(done.vpn, ppn);
            break;
        }
    }
    // Then resolve each waiter in arrival order: a fault for an address
    // outside every region, the page's translation otherwise.
    for (auto &w : done.waiters) {
        if (!pt_.mapped(base | w.offset)) {
            ++stats_.faults;
            w.cb(0, true);
            continue;
        }
        w.cb((ppn << kPageShift) | w.offset, false);
    }
    pumpWalkQueue();
}

} // namespace epf

#include "mem/uncore.hpp"

#include <cassert>
#include <stdexcept>

namespace epf
{

MemParams
MemParams::defaults()
{
    MemParams p;
    p.l1.name = "l1d";
    p.l1.sizeBytes = 32 * 1024;
    p.l1.ways = 2;
    p.l1.accessLatency = 2 * 5; // 2 cycles @ 3.2 GHz
    p.l1.mshrs = 12;

    p.l2.name = "l2";
    p.l2.sizeBytes = 1024 * 1024;
    p.l2.ways = 16;
    p.l2.accessLatency = 12 * 5; // 12 cycles @ 3.2 GHz
    p.l2.mshrs = 16;

    p.corePeriod = 5;
    return p;
}

Uncore::Uncore(EventQueue &eq, GuestMemory &mem, const MemParams &params,
               unsigned ports)
    : eq_(eq), p_(params), ports_(ports)
{
    assert(ports_ > 0);
    unsigned banks = p_.l2Banks;
    if (banks == 0) {
        // Auto: the largest power of two not exceeding the port count,
        // so bank selection stays a mask for any cores value (3 cores
        // -> 2 banks).
        banks = 1;
        while (banks * 2 <= ports_)
            banks *= 2;
    } else if ((banks & (banks - 1)) != 0) {
        throw std::invalid_argument(
            "MemParams::l2Banks must be a power of two, got " +
            std::to_string(banks));
    }

    dram_ = std::make_unique<Dram>(eq_, p_.dram);

    banks_.resize(banks);
    for (unsigned b = 0; b < banks; ++b) {
        CacheParams bp = p_.l2;
        bp.sizeBytes = p_.l2.sizeBytes / banks;
        bp.mshrs = p_.l2.mshrs / banks > 0 ? p_.l2.mshrs / banks : 1;
        if (banks > 1)
            bp.name = p_.l2.name + ".b" + std::to_string(b);
        banks_[b].cache = std::make_unique<Cache>(eq_, bp, *dram_);
        banks_[b].queues.resize(ports_);
    }

    pageTable_ = std::make_unique<PageTable>(mem);

    views_.reserve(ports_);
    for (unsigned p = 0; p < ports_; ++p)
        views_.emplace_back(this, p);

    l1s_.assign(ports_, nullptr);
}

Cache::Stats
Uncore::l2Stats() const
{
    Cache::Stats sum;
    for (const auto &b : banks_)
        sum += b.cache->stats();
    return sum;
}

void
Uncore::attachL1(unsigned p, Cache *l1)
{
    assert(p < ports_);
    l1s_[p] = l1;
}

unsigned
Uncore::bankOf(Addr paddr) const
{
    return static_cast<unsigned>(
        (paddr >> kLineShift) &
        (static_cast<Addr>(banks_.size()) - 1));
}

void
Uncore::portRead(unsigned port, const LineRequest &req, DoneFn done)
{
    Bank &bank = banks_[bankOf(req.paddr)];
    if (ports_ == 1) {
        // Single port: no arbitration stage at all, so the single-core
        // machine behaves byte-identically to the unsplit hierarchy.
        bank.cache->readLine(req, std::move(done));
        return;
    }
    bank.queues[port].push_back(Pending{req, std::move(done)});
    // An idle bank's next grant slot is the current tick; the shared
    // wake event drains every due bank at once.
    if (bank.nextGrantAt == kTickMax) {
        bank.nextGrantAt = eq_.now();
        armArb(eq_.now());
    }
}

void
Uncore::portWrite(unsigned port, const LineRequest &req)
{
    // Writebacks are posted and do not contend for grant slots.
    (void)port;
    banks_[bankOf(req.paddr)].cache->writeLine(req);
}

bool
Uncore::bankHasWork(const Bank &bank) const
{
    for (const auto &q : bank.queues) {
        if (!q.empty())
            return true;
    }
    return false;
}

bool
Uncore::grantOne(Bank &bank)
{
    unsigned waiting = 0;
    for (const auto &q : bank.queues)
        waiting += q.empty() ? 0 : 1;
    assert(waiting > 0);
    if (waiting > 1)
        ++stats_.arbConflicts;

    unsigned p = bank.rrNext;
    while (bank.queues[p].empty())
        p = (p + 1) % ports_;
    Pending pe = std::move(bank.queues[p].front());
    bank.queues[p].pop_front();
    bank.rrNext = (p + 1) % ports_;
    ++stats_.arbGrants;

    bank.cache->readLine(pe.req, std::move(pe.done));

    return bankHasWork(bank);
}

void
Uncore::armArb(Tick when)
{
    if (arbWakeAt_ <= when)
        return; // an earlier (or equal) wake event is already live
    arbWakeAt_ = when;
    const std::uint64_t gen = ++arbGen_;
    eq_.schedule(when, [this, gen] {
        if (gen != arbGen_)
            return; // superseded by an earlier re-arm
        arbWakeAt_ = kTickMax;
        arbDrain();
    });
}

void
Uncore::arbDrain()
{
    // One pass grants every bank whose slot is due this tick, in
    // bank-index order.  A bank that still has queued work takes its
    // next slot one l2ArbPeriod out; a drained bank goes idle, and its
    // next arriving request is granted in its own tick.  arbDrain
    // always re-arms from full bank state, so orphaned (superseded)
    // wake events lose nothing.
    const Tick now = eq_.now();
    Tick next = kTickMax;
    for (Bank &bank : banks_) {
        if (bank.nextGrantAt <= now) {
            bank.nextGrantAt =
                grantOne(bank) ? now + p_.l2ArbPeriod : kTickMax;
        }
        next = next < bank.nextGrantAt ? next : bank.nextGrantAt;
    }
    if (next != kTickMax)
        armArb(next);
}

void
Uncore::invalidateOthers(unsigned port, Addr line_addr, DirEntry &e)
{
    for (unsigned p = 0; p < ports_; ++p) {
        if (p == port || (e.sharers & (1u << p)) == 0)
            continue;
        if (l1s_[p] != nullptr && l1s_[p]->invalidateLine(line_addr))
            ++stats_.invalidations;
    }
    e.sharers = 1u << port;
    e.exclusive = true;
    e.owner = static_cast<std::uint8_t>(port);
}

void
Uncore::onFill(unsigned port, Addr line_addr, bool exclusive)
{
    DirEntry &e = dir_[line_addr];
    if (exclusive) {
        invalidateOthers(port, line_addr, e);
        return;
    }
    if (e.exclusive && e.owner != port) {
        // A remote read demotes the exclusive owner to shared; its copy
        // stays resident (dirty data writes back on eviction as usual).
        e.exclusive = false;
        ++stats_.downgrades;
    }
    e.sharers |= 1u << port;
}

void
Uncore::onWrite(unsigned port, Addr line_addr)
{
    DirEntry &e = dir_[line_addr];
    if (e.exclusive && e.owner == port)
        return; // already the exclusive owner: silent upgrade
    invalidateOthers(port, line_addr, e);
}

void
Uncore::onEvict(unsigned port, Addr line_addr)
{
    auto it = dir_.find(line_addr);
    if (it == dir_.end())
        return;
    it->second.sharers &= ~(1u << port);
    if (it->second.sharers == 0)
        dir_.erase(it);
}

} // namespace epf

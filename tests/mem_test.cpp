/**
 * @file
 * Unit tests for the memory hierarchy: guest memory regions, caches
 * (hits, LRU, MSHRs, writebacks, prefetch bookkeeping, tag adoption),
 * DRAM timing and TLB/page-table behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "mem/tlb.hpp"
#include "sim/event_queue.hpp"

namespace epf
{
namespace
{

// ---------------------------------------------------------------------
// GuestMemory
// ---------------------------------------------------------------------

TEST(GuestMemoryTest, RegionLookup)
{
    GuestMemory gm;
    std::vector<std::uint64_t> a(64, 7), b(64, 9);
    Addr pa = gm.addRegion("a", a.data(), a.size() * 8);
    Addr pb = gm.addRegion("b", b.data(), b.size() * 8);
    EXPECT_TRUE(gm.contains(pa));
    EXPECT_TRUE(gm.contains(pa + 511));
    EXPECT_FALSE(gm.contains(pa + 512));
    EXPECT_TRUE(gm.contains(pb, 8));
    EXPECT_EQ(gm.read64(pa), 7u);
    EXPECT_EQ(gm.read64(pb + 8), 9u);
}

TEST(GuestMemoryTest, ContainsRejectsStraddle)
{
    GuestMemory gm;
    std::vector<std::uint64_t> a(8, 1);
    Addr pa = gm.addRegion("a", a.data(), a.size() * 8);
    EXPECT_TRUE(gm.contains(pa + 56, 8));
    EXPECT_FALSE(gm.contains(pa + 60, 8));
}

TEST(GuestMemoryTest, ReadLineCopiesData)
{
    GuestMemory gm;
    alignas(64) std::uint64_t buf[16];
    for (int i = 0; i < 16; ++i)
        buf[i] = static_cast<std::uint64_t>(i) * 3;
    Addr base = gm.addRegion("buf", buf, sizeof(buf));

    LineData line;
    ASSERT_TRUE(gm.readLine(lineAlign(base + 8 * 8), line));
    std::uint64_t v;
    std::memcpy(&v, line.data(), 8);
    EXPECT_EQ(v, buf[8]);
}

TEST(GuestMemoryTest, UnmappedLineReadsFalse)
{
    GuestMemory gm;
    LineData line;
    EXPECT_FALSE(gm.readLine(0x100000, line));
}

TEST(GuestMemoryTest, BasesAreDeterministicAndHostIndependent)
{
    // Two registries with same-shaped regions behind different host
    // allocations must assign identical guest bases: simulated timing
    // depends on addresses, and addresses must not depend on the heap.
    std::vector<std::uint64_t> a1(100), b1(7000);
    std::vector<std::uint64_t> a2(100), b2(7000);
    GuestMemory g1, g2;
    Addr a1_base = g1.addRegion("a", a1.data(), a1.size() * 8);
    Addr b1_base = g1.addRegion("b", b1.data(), b1.size() * 8);
    Addr a2_base = g2.addRegion("a", a2.data(), a2.size() * 8);
    Addr b2_base = g2.addRegion("b", b2.data(), b2.size() * 8);
    EXPECT_EQ(a1_base, a2_base);
    EXPECT_EQ(b1_base, b2_base);
    EXPECT_EQ(a1_base, GuestMemory::kGuestBase);
    // Page-aligned, with at least a guard page between regions.
    EXPECT_EQ(b1_base % kPageBytes, 0u);
    EXPECT_GE(b1_base, a1_base + a1.size() * 8 + kPageBytes);
    EXPECT_FALSE(g1.contains(a1_base + a1.size() * 8));
}

TEST(GuestMemoryTest, GuestAddrTranslatesInteriorPointers)
{
    std::vector<std::uint64_t> a(64), b(64);
    GuestMemory gm;
    Addr a_base = gm.addRegion("a", a.data(), a.size() * 8);
    Addr b_base = gm.addRegion("b", b.data(), b.size() * 8);
    EXPECT_EQ(gm.guestAddr(a.data()), a_base);
    EXPECT_EQ(gm.guestAddr(&a[17]), a_base + 17 * 8);
    EXPECT_EQ(gm.guestAddr(&b[3]), b_base + 3 * 8);
    // A pointer outside every region is a workload bug: loud failure.
    int unregistered = 0;
    EXPECT_THROW((void)gm.guestAddr(&unregistered), std::logic_error);
}

TEST(GuestMemoryTest, ClearResetsTheAllocator)
{
    std::vector<std::uint64_t> a(64);
    GuestMemory gm;
    Addr first = gm.addRegion("a", a.data(), a.size() * 8);
    gm.clear();
    EXPECT_EQ(gm.addRegion("a", a.data(), a.size() * 8), first);
}

// ---------------------------------------------------------------------
// Cache (with a scripted parent level)
// ---------------------------------------------------------------------

/** A parent that answers reads after a fixed delay and logs traffic. */
class FakeParent : public MemLevel
{
  public:
    explicit FakeParent(EventQueue &eq, Tick delay = 100)
        : eq_(eq), delay_(delay)
    {
    }

    void
    readLine(const LineRequest &req, DoneFn done) override
    {
        ++reads;
        lastRead = req;
        eq_.scheduleIn(delay_, std::move(done));
    }

    void
    writeLine(const LineRequest &req) override
    {
        ++writes;
        lastWrite = req;
    }

    unsigned reads = 0;
    unsigned writes = 0;
    LineRequest lastRead;
    LineRequest lastWrite;

  private:
    EventQueue &eq_;
    Tick delay_;
};

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 1024; // 8 sets x 2 ways x 64 B
    p.ways = 2;
    p.accessLatency = 10;
    p.mshrs = 2;
    return p;
}

TEST(CacheTest, MissThenHit)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    bool done1 = false;
    EXPECT_EQ(c.demandAccess(true, 0x1000, 0x1000, [&] { done1 = true; }),
              Cache::DemandResult::Miss);
    eq.run();
    EXPECT_TRUE(done1);
    EXPECT_EQ(parent.reads, 1u);

    bool done2 = false;
    EXPECT_EQ(c.demandAccess(true, 0x1008, 0x1008, [&] { done2 = true; }),
              Cache::DemandResult::Hit);
    eq.run();
    EXPECT_TRUE(done2);
    EXPECT_EQ(parent.reads, 1u); // no second fetch
    EXPECT_EQ(c.stats().loads, 2u);
    EXPECT_EQ(c.stats().loadHits, 1u);
}

TEST(CacheTest, HitLatencyIsAccessLatency)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);
    c.demandAccess(true, 0x1000, 0x1000, [] {});
    eq.run();
    Tick t0 = eq.now();
    Tick t_done = 0;
    c.demandAccess(true, 0x1000, 0x1000, [&] { t_done = eq.now(); });
    eq.run();
    EXPECT_EQ(t_done - t0, 10u);
}

TEST(CacheTest, MergesConcurrentMisses)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    int done = 0;
    EXPECT_EQ(c.demandAccess(true, 0x2000, 0x2000, [&] { ++done; }),
              Cache::DemandResult::Miss);
    EXPECT_EQ(c.demandAccess(true, 0x2010, 0x2010, [&] { ++done; }),
              Cache::DemandResult::Merged);
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(parent.reads, 1u);
    EXPECT_EQ(c.stats().demandMerges, 1u);
}

/** Demands merged onto one miss run in merge order on the fill tick,
 *  and a same-tick event scheduled by the first waiter runs after the
 *  last one. */
TEST(CacheTest, MergedWaitersRunInMergeOrderOnTheFillTick)
{
    EventQueue eq;
    FakeParent parent(eq, 100);
    Cache c(eq, smallCache(), parent);

    std::vector<int> order;
    std::vector<Tick> ticks;
    auto record = [&](int id) {
        order.push_back(id);
        ticks.push_back(eq.now());
    };
    EXPECT_EQ(c.demandAccess(true, 0x3000, 0x3000,
                             [&] {
                                 record(0);
                                 eq.scheduleIn(0, [&] { record(3); });
                             }),
              Cache::DemandResult::Miss);
    EXPECT_EQ(c.demandAccess(true, 0x3008, 0x3008, [&] { record(1); }),
              Cache::DemandResult::Merged);
    EXPECT_EQ(c.demandAccess(true, 0x3010, 0x3010, [&] { record(2); }),
              Cache::DemandResult::Merged);
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ticks, (std::vector<Tick>{110, 110, 110, 110}));
    EXPECT_EQ(parent.reads, 1u);
    EXPECT_EQ(c.stats().demandMerges, 2u);
}

TEST(CacheTest, RejectsWhenMshrsExhausted)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent); // 2 MSHRs

    EXPECT_EQ(c.demandAccess(true, 0x0000, 0x0000, [] {}),
              Cache::DemandResult::Miss);
    EXPECT_EQ(c.demandAccess(true, 0x4000, 0x4000, [] {}),
              Cache::DemandResult::Miss);
    EXPECT_FALSE(c.hasFreeMshr());
    EXPECT_EQ(c.demandAccess(true, 0x8000, 0x8000, [] {}),
              Cache::DemandResult::NoMshr);
    eq.run();
    EXPECT_TRUE(c.hasFreeMshr());
    EXPECT_EQ(c.stats().mshrRejects, 1u);
}

TEST(CacheTest, LruEviction)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent); // 8 sets, 2 ways

    // Three lines mapping to set 0 (stride = sets * 64 = 512).
    c.demandAccess(true, 0x0000, 0x0000, [] {});
    eq.run();
    c.demandAccess(true, 0x0200, 0x0200, [] {});
    eq.run();
    // Touch 0x0000 so 0x0200 is LRU.
    c.demandAccess(true, 0x0000, 0x0000, [] {});
    eq.run();
    c.demandAccess(true, 0x0400, 0x0400, [] {});
    eq.run();

    EXPECT_TRUE(c.hasLine(0x0000));
    EXPECT_FALSE(c.hasLine(0x0200)); // evicted
    EXPECT_TRUE(c.hasLine(0x0400));
}

TEST(CacheTest, DirtyEvictionWritesBack)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    c.demandAccess(false, 0x0000, 0x0000, [] {}); // store -> dirty
    eq.run();
    c.demandAccess(true, 0x0200, 0x0200, [] {});
    eq.run();
    c.demandAccess(true, 0x0400, 0x0400, [] {}); // evicts dirty 0x0000
    eq.run();
    EXPECT_EQ(parent.writes, 1u);
    EXPECT_EQ(parent.lastWrite.paddr, 0x0000u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheTest, PrefetchFillAndUseTracking)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    LineRequest req;
    req.paddr = 0x3000;
    req.vaddr = 0x3000;
    req.isPrefetch = true;
    EXPECT_EQ(c.prefetchAccess(req), Cache::PrefetchResult::Issued);
    eq.run();
    EXPECT_EQ(c.stats().prefetchFills, 1u);
    EXPECT_EQ(c.stats().pfUsed, 0u);

    // Demand hit marks it used exactly once.
    c.demandAccess(true, 0x3000, 0x3000, [] {});
    c.demandAccess(true, 0x3008, 0x3008, [] {});
    eq.run();
    EXPECT_EQ(c.stats().pfUsed, 1u);
}

TEST(CacheTest, UnusedPrefetchCountedOnEviction)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    LineRequest req;
    req.paddr = 0x0000;
    req.isPrefetch = true;
    c.prefetchAccess(req);
    eq.run();
    // Evict it with two demand lines in the same set.
    c.demandAccess(true, 0x0200, 0x0200, [] {});
    eq.run();
    c.demandAccess(true, 0x0400, 0x0400, [] {});
    eq.run();
    EXPECT_EQ(c.stats().pfUnusedEvicted, 1u);
}

TEST(CacheTest, PrefetchToPresentLineDropped)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);
    c.demandAccess(true, 0x5000, 0x5000, [] {});
    eq.run();
    LineRequest req;
    req.paddr = 0x5000;
    req.isPrefetch = true;
    EXPECT_EQ(c.prefetchAccess(req), Cache::PrefetchResult::Present);
    EXPECT_EQ(parent.reads, 1u);
}

TEST(CacheTest, DemandMergingIntoPrefetchCountsLate)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    LineRequest req;
    req.paddr = 0x6000;
    req.isPrefetch = true;
    c.prefetchAccess(req);
    bool done = false;
    EXPECT_EQ(c.demandAccess(true, 0x6000, 0x6000, [&] { done = true; }),
              Cache::DemandResult::Merged);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(c.stats().pfUsedLate, 1u);
    EXPECT_EQ(c.stats().pfUsed, 1u);
}

TEST(CacheTest, MergedPrefetchAdoptsTagOntoMshr)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);

    class Listener : public MemoryListener
    {
      public:
        void
        notifyPrefetchFill(const LineRequest &req) override
        {
            fills.push_back(req);
        }
        std::vector<LineRequest> fills;
    } listener;
    c.setListener(&listener);

    // Demand miss in flight...
    c.demandAccess(true, 0x7000, 0x7000, [] {});
    // ...then a tagged prefetch to the same line merges and the MSHR
    // adopts the tag, so the fill still triggers the event.
    LineRequest req;
    req.paddr = 0x7000;
    req.vaddr = 0x7000;
    req.isPrefetch = true;
    req.tag = 5;
    EXPECT_EQ(c.prefetchAccess(req), Cache::PrefetchResult::Issued);
    eq.run();
    ASSERT_EQ(listener.fills.size(), 1u);
    EXPECT_EQ(listener.fills[0].tag, 5);
}

TEST(CacheTest, LowerLevelInterfaceQueuesOnMshrPressure)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent); // 2 MSHRs

    int done = 0;
    LineRequest r1{0x0000, 0x0000};
    LineRequest r2{0x4000, 0x4000};
    LineRequest r3{0x8000, 0x8000};
    c.readLine(r1, [&] { ++done; });
    c.readLine(r2, [&] { ++done; });
    c.readLine(r3, [&] { ++done; }); // overflows, must not be lost
    eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(parent.reads, 3u);
}

TEST(CacheTest, FullLineWritebackAllocatesWithoutFetch)
{
    EventQueue eq;
    FakeParent parent(eq);
    Cache c(eq, smallCache(), parent);
    LineRequest wb{0x9000, 0x9000};
    c.writeLine(wb);
    EXPECT_TRUE(c.hasLine(0x9000));
    EXPECT_EQ(parent.reads, 0u);
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(DramTest, ColdReadLatency)
{
    EventQueue eq;
    DramParams p;
    Dram d(eq, p);
    Tick done_at = 0;
    LineRequest r{0x0, 0x0};
    d.readLine(r, [&] { done_at = eq.now(); });
    eq.run();
    // frontend + tRCD + tCL + burst on an idle closed bank.
    EXPECT_EQ(done_at, p.frontendDelay + p.trcd + p.tcl + p.tburst);
    EXPECT_EQ(d.stats().rowMisses, 1u);
}

TEST(DramTest, RowHitIsFaster)
{
    EventQueue eq;
    DramParams p;
    Dram d(eq, p);
    Tick first = 0, second = 0;
    LineRequest a{0x0, 0x0};
    LineRequest b{0x40 * 8, 0x40 * 8}; // same bank (stride 8 lines), same row
    d.readLine(a, [&] { first = eq.now(); });
    eq.run();
    Tick t0 = eq.now();
    d.readLine(b, [&] { second = eq.now(); });
    eq.run();
    EXPECT_EQ(d.stats().rowHits, 1u);
    EXPECT_LT(second - t0, first);
}

TEST(DramTest, BanksOverlap)
{
    EventQueue eq;
    DramParams p;
    Dram d(eq, p);
    // Two different banks: almost fully overlapped.
    Tick done_a = 0, done_b = 0;
    LineRequest a{0x000, 0x000}; // bank 0
    LineRequest b{0x040, 0x040}; // bank 1
    d.readLine(a, [&] { done_a = eq.now(); });
    d.readLine(b, [&] { done_b = eq.now(); });
    eq.run();
    Tick serial = 2 * (p.frontendDelay + p.trcd + p.tcl + p.tburst);
    EXPECT_LT(std::max(done_a, done_b), serial);
}

TEST(DramTest, SameBankSerialises)
{
    EventQueue eq;
    DramParams p;
    Dram d(eq, p);
    // Same bank, different rows: precharge + activate between them.
    Tick done_b = 0;
    LineRequest a{0x00000, 0x00000};
    LineRequest b{0x20000, 0x20000}; // same bank 0, different row
    d.readLine(a, [] {});
    d.readLine(b, [&] { done_b = eq.now(); });
    eq.run();
    EXPECT_EQ(d.stats().rowMisses, 2u);
    EXPECT_GT(done_b, p.frontendDelay + p.trcd + p.tcl + p.tburst);
}

TEST(DramTest, WritesCountButDontCallBack)
{
    EventQueue eq;
    Dram d(eq, DramParams{});
    LineRequest w{0x100, 0x100};
    d.writeLine(w);
    eq.run();
    EXPECT_EQ(d.stats().writes, 1u);
    EXPECT_EQ(d.stats().reads, 0u);
}

// ---------------------------------------------------------------------
// Page table and TLB
// ---------------------------------------------------------------------

TEST(PageTableTest, StableAndDistinct)
{
    GuestMemory gm;
    std::vector<std::uint64_t> buf(4096 * 4, 0); // 16 pages worth
    Addr base = gm.addRegion("buf", buf.data(), buf.size() * 8);
    PageTable pt(gm);
    Addr p1 = pt.translate(base);
    Addr p1_again = pt.translate(base + 8);
    EXPECT_EQ(p1 >> kPageShift, p1_again >> kPageShift);
    EXPECT_EQ(p1 & (kPageBytes - 1), base & (kPageBytes - 1));

    Addr p2 = pt.translate(base + kPageBytes);
    EXPECT_NE(p1 >> kPageShift, p2 >> kPageShift);
}

TEST(TlbTest, HitAfterWalkAndFlush)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 0);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);
    PageTable pt(gm);
    FakeParent walk_mem(eq, 50);
    Tlb tlb(eq, TlbParams{}, pt, walk_mem);
    Addr got = 0;
    tlb.translate(va, [&](Addr pa, bool fault) {
        EXPECT_FALSE(fault);
        got = pa;
    });
    eq.run();
    EXPECT_NE(got, 0u);
    EXPECT_EQ(tlb.stats().walks, 1u);
    EXPECT_GT(walk_mem.reads, 0u);

    // Second translation hits the L1 TLB synchronously.
    Addr got2 = 0;
    tlb.translate(va + 8, [&](Addr pa, bool) { got2 = pa; });
    EXPECT_EQ(got2, got + 8);
    EXPECT_EQ(tlb.stats().l1Hits, 1u);

    tlb.flush();
    tlb.translate(va, [](Addr, bool) {});
    eq.run();
    EXPECT_EQ(tlb.stats().walks, 2u);
}

TEST(TlbTest, L1EvictsLeastRecentlyUsedAndRefillsAfterFlush)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(8 * kPageBytes / 8, 0); // 8 pages
    Addr base = gm.addRegion("buf", buf.data(), buf.size() * 8);
    PageTable pt(gm);
    FakeParent walk_mem(eq, 50);
    TlbParams tp;
    tp.l1Entries = 4;
    Tlb tlb(eq, tp, pt, walk_mem);
    auto touch = [&](unsigned page) {
        tlb.translate(base + page * kPageBytes,
                      [](Addr, bool fault) { EXPECT_FALSE(fault); });
        eq.run();
    };

    for (unsigned page = 0; page < 4; ++page)
        touch(page); // fills the L1
    touch(0);        // page 1 is now the least recently used
    EXPECT_EQ(tlb.stats().walks, 4u);
    EXPECT_EQ(tlb.stats().l1Hits, 1u);
    touch(4); // walks and evicts page 1
    EXPECT_EQ(tlb.stats().walks, 5u);

    for (unsigned page : {0u, 2u, 3u, 4u})
        touch(page);
    EXPECT_EQ(tlb.stats().l1Hits, 5u);
    touch(1); // evicted from the L1, still in the L2
    EXPECT_EQ(tlb.stats().l1Hits, 5u);
    EXPECT_EQ(tlb.stats().l2Hits, 1u);

    tlb.flush();
    touch(5);
    EXPECT_EQ(tlb.stats().walks, 6u);
    touch(5);
    EXPECT_EQ(tlb.stats().l1Hits, 6u);
    EXPECT_EQ(tlb.stats().l2Hits, 1u);
}

TEST(TlbTest, FaultReportedForUnmapped)
{
    EventQueue eq;
    GuestMemory gm; // nothing mapped
    PageTable pt(gm);
    FakeParent walk_mem(eq, 50);
    Tlb tlb(eq, TlbParams{}, pt, walk_mem);

    bool faulted = false;
    tlb.translate(0xdead000, [&](Addr, bool fault) { faulted = fault; });
    eq.run();
    EXPECT_TRUE(faulted);
    EXPECT_EQ(tlb.stats().faults, 1u);
}

TEST(TlbTest, ConcurrentWalksAreBounded)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(4096 * 8, 0);
    Addr base = gm.addRegion("buf", buf.data(), buf.size() * 8);
    PageTable pt(gm);
    FakeParent walk_mem(eq, 500);
    TlbParams tp;
    tp.maxWalks = 2;
    Tlb tlb(eq, tp, pt, walk_mem);
    int done = 0;
    for (unsigned i = 0; i < 6; ++i) {
        tlb.translate(base + i * kPageBytes,
                      [&](Addr, bool fault) {
                          EXPECT_FALSE(fault);
                          ++done;
                      });
    }
    eq.run();
    EXPECT_EQ(done, 6);
    EXPECT_EQ(tlb.stats().walks, 6u);
}

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

TEST(HierarchyTest, LoadRoundTripAndStats)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 5);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);
    MemoryHierarchy mem(eq, gm, MemParams::defaults());

    int done = 0;
    mem.load(va, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(mem.stats().coreLoads, 1u);
    EXPECT_EQ(mem.l1().stats().loads, 1u);
    EXPECT_GE(mem.dram().stats().reads, 1u);

    // Second load to the same line: L1 hit, no extra DRAM reads.
    auto dram_before = mem.dram().stats().reads;
    mem.load(va + 8, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(mem.dram().stats().reads, dram_before);
}

TEST(HierarchyTest, StoreRetriesCountedSeparatelyFromLoadRetries)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(4096, 5);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);
    MemParams p = MemParams::defaults();
    p.l1.mshrs = 1; // one in-flight miss; everything else must retry
    MemoryHierarchy mem(eq, gm, p);

    // Baseline sanity: a lone load completes without any retries.
    int warm = 0;
    mem.load(va, 0, [&] { ++warm; });
    eq.run();
    ASSERT_EQ(warm, 1);
    ASSERT_EQ(mem.stats().loadRetries, 0u);

    // Two stores to distinct uncached lines in the same page (their
    // translations share one walk, so both reach the L1 together): the
    // first takes the only MSHR, the second must retry until it fills.
    int done = 0;
    mem.store(va + 64 * 100, 0, [&] { ++done; });
    mem.store(va + 64 * 110, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_GT(mem.stats().storeRetries, 0u);
    EXPECT_EQ(mem.stats().loadRetries, 0u);

    // And the mirror image: loads retrying must not count as stores.
    mem.resetStats();
    mem.load(va + 64 * 200, 0, [&] { ++done; });
    mem.load(va + 64 * 210, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_GT(mem.stats().loadRetries, 0u);
    EXPECT_EQ(mem.stats().storeRetries, 0u);
}

TEST(HierarchyTest, PrefetchSourceDrainedAndFaultsDropped)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 5);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);
    MemoryHierarchy mem(eq, gm, MemParams::defaults());

    class Src : public PrefetchSource
    {
      public:
        std::vector<LineRequest> reqs;
        bool hasRequest() const override { return !reqs.empty(); }
        LineRequest
        popRequest() override
        {
            LineRequest r = reqs.back();
            reqs.pop_back();
            return r;
        }
    } src;

    LineRequest ok;
    ok.vaddr = va;
    ok.isPrefetch = true;
    LineRequest bad;
    bad.vaddr = 0xdead0000;
    bad.isPrefetch = true;
    src.reqs = {ok, bad};

    mem.setPrefetchSource(&src);
    mem.kickPrefetcher();
    eq.run();
    EXPECT_EQ(mem.stats().pfIssued, 1u);
    EXPECT_EQ(mem.stats().pfDropFault, 1u);
    EXPECT_EQ(mem.l1().stats().prefetchFills, 1u);
}

/**
 * A deep burst of prefetch candidates to distinct lines: far more than
 * the MSHR file holds, so the issue path stays saturated for the whole
 * run (but finite, so the event queue eventually drains).
 */
class SaturatingSource : public PrefetchSource
{
  public:
    SaturatingSource(Addr base, std::uint64_t lines, std::uint64_t limit)
        : base_(base), lines_(lines), limit_(limit)
    {
    }

    bool hasRequest() const override { return popped_ < limit_; }
    LineRequest
    popRequest() override
    {
        LineRequest r;
        r.vaddr = base_ + (next_++ % lines_) * 64;
        r.isPrefetch = true;
        ++popped_;
        return r;
    }

    std::uint64_t popped() const { return popped_; }

  private:
    Addr base_;
    std::uint64_t lines_;
    std::uint64_t limit_;
    std::uint64_t next_ = 0;
    std::uint64_t popped_ = 0;
};

TEST(HierarchyTest, PrefetchIssueNeverTakesReservedDemandMshrs)
{
    // The demandReservedMshrs contract: with R MSHRs reserved, a
    // prefetch may only take an MSHR while free > R — including
    // requests whose translations were in flight when the file filled
    // (re-checked when the translation lands; see MemParams).
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1 << 16, 5); // 512 KB
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);
    MemParams p = MemParams::defaults();
    p.demandReservedMshrs = 2;
    MemoryHierarchy mem(eq, gm, p);

    SaturatingSource src(va, 4096, 2000);
    mem.setPrefetchSource(&src);

    // Interleave demand loads with the saturating source and step the
    // queue one event at a time, checking the contract continuously.
    // Every issued prefetch allocates an L1 MSHR that is released by
    // its fill, so pfIssued - prefetchFills is the number of MSHRs
    // prefetches hold right now: it must never exceed the MSHRs not
    // reserved for demand (issue requires free > reserved).
    std::uint64_t completed = 0;
    for (int i = 0; i < 32; ++i)
        mem.load(va + static_cast<Addr>(i) * 8192, 0,
                 [&completed] { ++completed; });
    mem.kickPrefetcher();

    const std::uint64_t pf_cap = p.l1.mshrs - p.demandReservedMshrs;
    std::uint64_t max_inflight_pf = 0;
    std::uint64_t steps = 0;
    while (!eq.empty()) {
        eq.runOne();
        ++steps;
        const std::uint64_t inflight_pf =
            mem.stats().pfIssued - mem.l1().stats().prefetchFills;
        ASSERT_LE(inflight_pf, pf_cap) << "at step " << steps;
        max_inflight_pf = std::max(max_inflight_pf, inflight_pf);
    }
    EXPECT_EQ(completed, 32u);
    EXPECT_GT(mem.stats().pfIssued, 0u);
    // The saturating source really did drive the queue to the cap —
    // otherwise the bound above proves nothing.
    EXPECT_EQ(max_inflight_pf, pf_cap);

    // And the degenerate configuration: reserving every MSHR starves
    // the prefetcher completely while demands still complete.
    EventQueue eq2;
    GuestMemory gm2;
    std::vector<std::uint64_t> buf2(1 << 16, 5);
    Addr va2 = gm2.addRegion("buf", buf2.data(), buf2.size() * 8);
    MemParams p2 = MemParams::defaults();
    p2.demandReservedMshrs = p2.l1.mshrs;
    MemoryHierarchy mem2(eq2, gm2, p2);

    SaturatingSource src2(va2, 4096, 2000);
    mem2.setPrefetchSource(&src2);
    std::uint64_t done2 = 0;
    for (int i = 0; i < 8; ++i)
        mem2.load(va2 + static_cast<Addr>(i) * 8192, 0,
                  [&done2] { ++done2; });
    mem2.kickPrefetcher();
    eq2.run();
    EXPECT_EQ(done2, 8u);
    EXPECT_EQ(mem2.stats().pfIssued, 0u);
    EXPECT_EQ(src2.popped(), 0u);
    EXPECT_EQ(mem2.l1().stats().prefetchFills, 0u);
}

} // namespace
} // namespace epf

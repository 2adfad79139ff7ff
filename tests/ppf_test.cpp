/**
 * @file
 * Unit tests for the programmable prefetcher: address filter, observation
 * queue, scheduler policies, EWMA lookahead, event chains via callback
 * kernels and memory-request tags, and blocked mode.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "isa/builder.hpp"
#include "mem/guest_memory.hpp"
#include "ppf/ewma.hpp"
#include "ppf/filter.hpp"
#include "ppf/ppf.hpp"
#include "sim/event_queue.hpp"

namespace epf
{
namespace
{

TEST(EwmaTest, FirstSampleSeeds)
{
    Ewma e;
    EXPECT_FALSE(e.seeded());
    e.sample(100);
    EXPECT_TRUE(e.seeded());
    EXPECT_EQ(e.value(), 100u);
}

TEST(EwmaTest, ConvergesToConstantInput)
{
    Ewma e;
    e.sample(0);
    for (int i = 0; i < 100; ++i)
        e.sample(800);
    EXPECT_NEAR(static_cast<double>(e.value()), 800.0, 8.0);
}

TEST(EwmaTest, SmoothsSpikes)
{
    Ewma e;
    e.sample(100);
    e.sample(1000); // single outlier moves it by only ~1/8
    // Round-to-nearest: 100 + round(900 / 8) = 100 + 113.
    EXPECT_EQ(e.value(), 213u);
}

/**
 * Regression for the downward bias of truncating arithmetic: with
 * `delta >> shift`, oscillating samples drift the average toward the
 * *minimum* (negative deltas always step down, small positive deltas
 * truncate to zero), which inflated the derived lookahead.  With
 * round-to-nearest the equilibrium stays at the input mean.
 */
TEST(EwmaTest, OscillatingInputHasNoDownwardBias)
{
    Ewma e;
    e.sample(1004);
    for (int i = 0; i < 200; ++i) {
        e.sample(996);
        e.sample(1004);
    }
    // Mean is 1000.  The truncating version settles at ~996-997.
    EXPECT_GE(e.value(), 999u);
    EXPECT_LE(e.value(), 1002u);
}

class LookaheadParam
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(LookaheadParam, RatioTimesScale)
{
    auto [chain, iter] = GetParam();
    LookaheadCalculator la;
    // Seed the iteration EWMA via evenly spaced accesses.
    Tick t = 1000;
    for (int i = 0; i < 200; ++i) {
        la.observeAccess(t);
        t += iter;
    }
    for (int i = 0; i < 200; ++i)
        la.observeChain(chain);
    std::uint64_t expect =
        LookaheadCalculator::kScale * ((chain + iter - 1) / iter);
    if (expect > LookaheadCalculator::kMax)
        expect = LookaheadCalculator::kMax;
    EXPECT_NEAR(static_cast<double>(la.lookahead()),
                static_cast<double>(expect), 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, LookaheadParam,
    ::testing::Values(std::make_tuple(1600, 160),   // 10x -> 20
                      std::make_tuple(800, 400),    // 2x -> 4
                      std::make_tuple(3200, 100),   // 32x -> clamp 32
                      std::make_tuple(160, 1600))); // <1 -> 2

TEST(LookaheadTest, InitialBeforeSamples)
{
    LookaheadCalculator la;
    EXPECT_EQ(la.lookahead(), LookaheadCalculator::kInitial);
}

TEST(FilterTableTest, OverlappingRangesBothMatch)
{
    FilterTable ft;
    FilterEntry a;
    a.name = "a";
    a.base = 100;
    a.limit = 200;
    FilterEntry b;
    b.name = "b";
    b.base = 150;
    b.limit = 250;
    ft.add(a);
    ft.add(b);

    std::vector<int> hits;
    ft.match(170, [&](int idx, const FilterEntry &) { hits.push_back(idx); });
    EXPECT_EQ(hits, (std::vector<int>{0, 1}));
    hits.clear();
    ft.match(120, [&](int idx, const FilterEntry &) { hits.push_back(idx); });
    EXPECT_EQ(hits, (std::vector<int>{0}));
    hits.clear();
    ft.match(250, [&](int idx, const FilterEntry &) { hits.push_back(idx); });
    EXPECT_TRUE(hits.empty());
}

/**
 * Reference oracle for FilterTable::match: a plain linear scan over the
 * entries as configured.  Matches must be identical — same entries,
 * same (insertion) order — at every table size up to the 64-entry
 * hardware bound.
 */
std::vector<int>
linearMatches(const std::vector<FilterEntry> &entries, Addr a)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (entries[i].contains(a))
            out.push_back(static_cast<int>(i));
    return out;
}

std::vector<int>
tableMatches(const FilterTable &ft, Addr a)
{
    std::vector<int> out;
    ft.match(a, [&](int idx, const FilterEntry &) { out.push_back(idx); });
    return out;
}

/** Deterministic overlapping spans: adjacent, nested and disjoint. */
std::vector<FilterEntry>
boundaryEntries(std::size_t n)
{
    std::vector<FilterEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
        FilterEntry e;
        e.name = "e" + std::to_string(i);
        // Chains of overlapping [i*40, i*40+100) spans plus every 7th
        // entry covering a huge nested range.
        e.base = static_cast<Addr>(i * 40);
        e.limit = e.base + (i % 7 == 0 ? 4000 : 100);
        entries.push_back(e);
    }
    return entries;
}

class FilterTableBoundary : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FilterTableBoundary, MatchesLinearOracleInInsertionOrder)
{
    const std::size_t n = GetParam(); // 64 is the hardware bound
    ASSERT_LE(n, FilterTable::kMaxEntries);
    const auto entries = boundaryEntries(n);
    FilterTable ft;
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(ft.add(entries[i]), static_cast<int>(i));
    EXPECT_EQ(ft.size(), n);

    // Probe every span edge and interior plus out-of-range points.
    std::vector<Addr> probes{0, 1, 39, 40, 99, 100};
    for (std::size_t i = 0; i < n; ++i) {
        probes.push_back(entries[i].base);
        probes.push_back(entries[i].base + 50);
        probes.push_back(entries[i].limit - 1);
        probes.push_back(entries[i].limit);
    }
    probes.push_back(1'000'000);
    for (Addr a : probes)
        EXPECT_EQ(tableMatches(ft, a), linearMatches(entries, a))
            << "n=" << n << " addr=" << a;
}

INSTANTIATE_TEST_SUITE_P(AroundIndexBound, FilterTableBoundary,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{63},
                                           std::size_t{64}));

TEST(FilterTableBoundary65, OversizedAddThrows)
{
    // 65 entries exceed the hardware bound: the 65th add() throws in
    // every build and leaves the 64-entry table matching as before.
    const auto entries = boundaryEntries(65);
    FilterTable ft;
    for (std::size_t i = 0; i < 64; ++i)
        ft.add(entries[i]);
    EXPECT_THROW(ft.add(entries[64]), std::invalid_argument);
    EXPECT_EQ(ft.size(), 64u);
    const std::vector<FilterEntry> kept(entries.begin(),
                                        entries.begin() + 64);
    for (Addr a : {Addr{0}, Addr{50}, Addr{63 * 40}, Addr{64 * 40 + 50}})
        EXPECT_EQ(tableMatches(ft, a), linearMatches(kept, a));
}

TEST(FilterTableTest, InsertionOrderPreservedUnderReversedBases)
{
    // Entries inserted with descending bases: callbacks arrive in
    // insertion order, not in address order.
    FilterTable ft;
    std::vector<FilterEntry> entries;
    for (int i = 0; i < 8; ++i) {
        FilterEntry e;
        e.name = "r" + std::to_string(i);
        e.base = static_cast<Addr>((8 - i) * 100);
        e.limit = 2000;
        entries.push_back(e);
        ft.add(e);
    }
    EXPECT_EQ(tableMatches(ft, 900), linearMatches(entries, 900));
    EXPECT_EQ(tableMatches(ft, 900), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/** Fixture: a PPF over a small guest array, with a captured kick. */
class PpfTest : public ::testing::Test
{
  protected:
    PpfTest()
    {
        data_.resize(4096);
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] = i;
        base_ = gmem_.addRegion("data", data_.data(), data_.size() * 8);
    }

    Addr base() const { return base_; }

    std::unique_ptr<ProgrammablePrefetcher>
    make(PpfConfig cfg = {})
    {
        auto p = std::make_unique<ProgrammablePrefetcher>(eq_, gmem_, cfg);
        p->setKick([this] { ++kicks_; });
        return p;
    }

    /** Drain queued requests into a vector. */
    std::vector<LineRequest>
    drain(ProgrammablePrefetcher &p)
    {
        std::vector<LineRequest> out;
        while (p.hasRequest())
            out.push_back(p.popRequest());
        return out;
    }

    EventQueue eq_;
    GuestMemory gmem_;
    std::vector<std::uint64_t> data_;
    Addr base_ = 0;
    int kicks_ = 0;
};

TEST_F(PpfTest, LoadObservationRunsKernelAndEmits)
{
    auto ppf = make();
    unsigned g = ppf->allocGlobal(128);
    KernelBuilder b("next");
    b.vaddr(1).gread(2, g).add(1, 1, 2).prefetch(1).halt();
    KernelId k = ppf->kernels().add(b.build());

    FilterEntry fe;
    fe.name = "data";
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base() + 64, true, false, 0);
    eq_.run();

    EXPECT_EQ(ppf->stats().eventsRun, 1u);
    auto reqs = drain(*ppf);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].vaddr, base() + 64 + 128);
    EXPECT_GT(kicks_, 0);
}

TEST_F(PpfTest, LoadsOutsideRangeIgnored)
{
    auto ppf = make();
    KernelBuilder b("k");
    b.halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 64;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base() + 128, true, false, 0);
    ppf->notifyDemand(base() - 8, true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().observations, 0u);
}

TEST_F(PpfTest, StoresDoNotTrigger)
{
    auto ppf = make();
    KernelBuilder b("k");
    b.halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);
    ppf->notifyDemand(base(), false, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().observations, 0u);
}

TEST_F(PpfTest, CallbackKernelSeesFetchedLine)
{
    auto ppf = make();
    // The kernel doubles the observed word (8 * data value) as address.
    KernelBuilder b("use_data");
    b.vaddr(1).ldLine(2, 1, 0).shli(2, 2, 3).prefetch(2).halt();
    KernelId k = ppf->kernels().add(b.build());

    LineRequest fill;
    fill.vaddr = base() + 16 * 8; // data_[16] = 16
    fill.isPrefetch = true;
    fill.cbKernel = k;
    ppf->notifyPrefetchFill(fill);
    eq_.run();

    auto reqs = drain(*ppf);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].vaddr, 16u * 8u);
}

TEST_F(PpfTest, TagRoutesToRegisteredKernel)
{
    auto ppf = make();
    KernelBuilder b("tagk");
    b.li(1, 0x42).prefetch(1).halt();
    KernelId k = ppf->kernels().add(b.build());
    std::int32_t tag = ppf->registerTag(k);

    LineRequest fill;
    fill.vaddr = base();
    fill.isPrefetch = true;
    fill.tag = tag;
    ppf->notifyPrefetchFill(fill);
    eq_.run();
    auto reqs = drain(*ppf);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].vaddr, 0x42u);
}

TEST_F(PpfTest, ObservationQueueDropsOldest)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.obsQueueCapacity = 4;
    cfg.dispatchOverhead = 1000; // keep the PPU busy long enough
    auto ppf = make(cfg);
    KernelBuilder b("k");
    b.halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 32768;
    fe.onLoad = k;
    ppf->addFilter(fe);

    // The first observation starts on the PPU at once; the other nine
    // pass through the 4-entry queue, which drops its oldest entry for
    // each of the last five.
    for (int i = 0; i < 10; ++i)
        ppf->notifyDemand(base() + static_cast<Addr>(i) * 64, true, false,
                          0);
    EXPECT_EQ(ppf->stats().observations, 10u);
    EXPECT_EQ(ppf->stats().obsDropped, 5u);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 5u);
}

TEST_F(PpfTest, LowestIdPolicySkewsWork)
{
    PpfConfig cfg;
    cfg.numPpus = 4;
    auto ppf = make(cfg);
    KernelBuilder b("k");
    b.li(1, 1).prefetch(1).halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 32768;
    fe.onLoad = k;
    ppf->addFilter(fe);

    // Sequential (non-overlapping) events all land on PPU 0.
    for (int i = 0; i < 6; ++i) {
        ppf->notifyDemand(base() + static_cast<Addr>(i) * 64, true, false,
                          0);
        eq_.run();
    }
    EXPECT_EQ(ppf->ppuStats()[0].events, 6u);
    EXPECT_EQ(ppf->ppuStats()[1].events, 0u);
}

TEST_F(PpfTest, TrappingKernelCounted)
{
    auto ppf = make();
    KernelBuilder b("trap");
    // Strict add() rejects only instruction-local guaranteed traps
    // (divi #0); a register divisor only may trap, so this kernel
    // installs.  Global 0 is never written in this test, so the gread
    // yields 0 and the div traps at run time.
    b.li(1, 1).gread(2, 0).div(1, 1, 2).halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().traps, 1u);
}

TEST_F(PpfTest, RequestQueueCapacityDropsOldest)
{
    PpfConfig cfg;
    cfg.reqQueueCapacity = 4;
    auto ppf = make(cfg);
    // Kernel emitting 8 prefetches.
    KernelBuilder b("k8");
    b.li(1, 0x1000);
    for (int i = 0; i < 8; ++i)
        b.addi(1, 1, 64).prefetch(1);
    b.halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().reqDropped, 4u);
    EXPECT_EQ(drain(*ppf).size(), 4u);
}

TEST_F(PpfTest, EwmaChainSampling)
{
    auto ppf = make();
    KernelBuilder b("k");
    b.vaddr(1).prefetch(1).halt();
    KernelId k = ppf->kernels().add(b.build());

    FilterEntry src;
    src.name = "src";
    src.base = base();
    src.limit = base() + 1024;
    src.onLoad = k;
    src.timeSource = true;
    src.timedStart = true;
    int src_idx = ppf->addFilter(src);

    FilterEntry dst;
    dst.name = "dst";
    dst.base = base() + 2048;
    dst.limit = base() + 4096;
    dst.timedEnd = true;
    ppf->addFilter(dst);

    // A timed fill arriving at the dst range samples the chain EWMA.
    LineRequest fill;
    fill.vaddr = base() + 2048;
    fill.isPrefetch = true;
    fill.hasTimedStart = true;
    fill.timedStart = 0;
    fill.timedOrigin = static_cast<std::int16_t>(src_idx);
    eq_.schedule(1600, [&] { ppf->notifyPrefetchFill(fill); });
    eq_.run();
    EXPECT_EQ(ppf->stats().chainSamples, 1u);

    // Synthesised completions must not sample.
    LineRequest synth = fill;
    synth.synthesized = true;
    ppf->notifyPrefetchFill(synth);
    eq_.run();
    EXPECT_EQ(ppf->stats().chainSamples, 1u);
}

TEST_F(PpfTest, BlockedModeStallsPpuUntilFill)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.blocking = true;
    auto ppf = make(cfg);

    KernelBuilder cb("cb");
    cb.li(1, 0x9000).prefetch(1).halt();
    KernelId k_cb = ppf->kernels().add(cb.build());

    KernelBuilder b("chain");
    b.li(1, 0x8000).prefetchCb(1, k_cb).halt();
    KernelId k = ppf->kernels().add(b.build());

    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().blockedStalls, 1u);

    // A second observation cannot be scheduled: the single PPU stalls.
    ppf->notifyDemand(base() + 64, true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 1u);

    // The fill arrives, runs the callback on the same PPU and frees it.
    auto reqs = drain(*ppf);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].originPpu, 0);
    LineRequest fill = reqs[0];
    fill.vaddr = base() + 512; // somewhere readable
    ppf->notifyPrefetchFill(fill);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 3u); // cb + queued second obs
}

TEST_F(PpfTest, BlockedModeReleasedOnDrop)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.blocking = true;
    auto ppf = make(cfg);

    KernelBuilder cb("cb");
    cb.halt();
    KernelId k_cb = ppf->kernels().add(cb.build());
    KernelBuilder b("chain");
    b.li(1, 0x8000).prefetchCb(1, k_cb).halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    auto reqs = drain(*ppf);
    ASSERT_EQ(reqs.size(), 1u);
    // The request faults / is dropped: the PPU must be released.
    ppf->notifyPrefetchDropped(reqs[0]);
    eq_.run();
    ppf->notifyDemand(base() + 64, true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 2u);
}

/**
 * Blocked mode, re-entrant finish: queueing a unit's emits overflows
 * the request queue, which drops an older chained request of the same
 * unit, and notifyPrefetchDropped -> pumpBlocked moves the unit's next
 * continuation onto it mid-loop.  Requests queued after that must still
 * carry the timed-chain fields of the event that emitted them.
 */
TEST_F(PpfTest, BlockedOverflowMidEmitKeepsTheEmittersChainFields)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.blocking = true;
    cfg.reqQueueCapacity = 2;
    auto ppf = make(cfg);

    KernelBuilder leaf("leaf");
    leaf.halt();
    KernelId k_leaf = ppf->kernels().add(leaf.build());
    KernelBuilder fan("fan");
    fan.li(1, 0x8000)
        .prefetchCb(1, k_leaf)
        .prefetchCb(1, k_leaf)
        .prefetchCb(1, k_leaf)
        .halt();
    KernelId k_fan = ppf->kernels().add(fan.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k_fan;
    ppf->addFilter(fe);

    // The load's three chained requests overflow the queue by one.
    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    ASSERT_EQ(ppf->stats().reqDropped, 1u);
    ASSERT_TRUE(ppf->hasRequest());
    ppf->popRequest();

    // Two fills return to the stalled unit: the first runs the fan-out
    // kernel again, the second (queued behind it) emits nothing.
    LineRequest fill;
    fill.vaddr = base() + 512;
    fill.isPrefetch = true;
    fill.originPpu = 0;
    fill.cbKernel = k_fan;
    fill.timedOrigin = 5;
    ppf->notifyPrefetchFill(fill);
    fill.cbKernel = k_leaf;
    fill.timedOrigin = 7;
    ppf->notifyPrefetchFill(fill);
    eq_.run();

    const auto reqs = drain(*ppf);
    ASSERT_FALSE(reqs.empty());
    EXPECT_EQ(reqs.back().timedOrigin, 5);
}

/**
 * Blocked mode, re-entrant kick: a continuation finishes while another
 * chained request of its unit is still queued, and the kick delivers
 * that request's fill at once (a resident line answers synchronously).
 * The fill resumes the unit on its own continuation, so the unit must
 * not also be released to the load waiting in the observation queue.
 */
TEST_F(PpfTest, BlockedKickThatResumesTheUnitKeepsItBusy)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.blocking = true;
    auto ppf = make(cfg);

    KernelBuilder cont("cont");
    cont.li(1, 0x9000).prefetch(1).halt();
    KernelId k_cont = ppf->kernels().add(cont.build());
    KernelBuilder two("two");
    two.li(1, 0x8000)
        .prefetchCb(1, k_cont)
        .li(1, 0x8040)
        .prefetchCb(1, k_cont)
        .halt();
    KernelId k_two = ppf->kernels().add(two.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k_two;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    const LineRequest first = ppf->popRequest();
    // A second load waits behind the stalled unit.
    ppf->notifyDemand(base() + 64, true, false, 0);

    bool armed = true;
    ppf->setKick([&] {
        if (!armed)
            return;
        armed = false;
        LineRequest second = ppf->popRequest();
        second.synthesized = true;
        ppf->notifyPrefetchFill(second);
    });
    ppf->notifyPrefetchFill(first);
    eq_.run();

    // Both continuations ran their own kernel, then the waiting load.
    EXPECT_EQ(ppf->stats().eventsRun, 4u);
    std::vector<Addr> targets;
    for (const auto &r : drain(*ppf))
        targets.push_back(r.vaddr);
    EXPECT_EQ(targets, (std::vector<Addr>{0x9000, 0x9000, 0x8000, 0x8040}));
}

/**
 * Blocked mode, re-entrant kick that drops: a continuation finishes
 * while the unit's last other chained request is still queued, and the
 * kick drops that request at once.  notifyPrefetchDropped ->
 * pumpBlocked releases the unit inside the kick; the finishing event
 * must not release it a second time.
 */
class PpfBlockedDropTest : public PpfTest
{
  protected:
    /** Stall a unit on two chained requests, fill the first and drop
     *  the second from the kick that the continuation's finish runs.
     *  With @p waitingLoad, a second load waits in the observation
     *  queue meanwhile. */
    std::unique_ptr<ProgrammablePrefetcher>
    runDropInKick(bool waitingLoad)
    {
        PpfConfig cfg;
        cfg.numPpus = 1;
        cfg.blocking = true;
        auto ppf = make(cfg);

        KernelBuilder cont("cont");
        cont.li(1, 0x9000).prefetch(1).halt();
        KernelId k_cont = ppf->kernels().add(cont.build());
        KernelBuilder two("two");
        two.li(1, 0x8000)
            .prefetchCb(1, k_cont)
            .li(1, 0x8040)
            .prefetchCb(1, k_cont)
            .halt();
        KernelId k_two = ppf->kernels().add(two.build());
        FilterEntry fe;
        fe.base = base();
        fe.limit = base() + 1024;
        fe.onLoad = k_two;
        ppf->addFilter(fe);

        ppf->notifyDemand(base(), true, false, 0);
        eq_.run();
        const LineRequest first = ppf->popRequest();
        if (waitingLoad)
            ppf->notifyDemand(base() + 64, true, false, 0);

        ProgrammablePrefetcher *raw = ppf.get();
        bool armed = true;
        ppf->setKick([raw, armed]() mutable {
            if (!armed)
                return;
            armed = false;
            raw->notifyPrefetchDropped(raw->popRequest());
        });
        ppf->notifyPrefetchFill(first);
        eq_.run();
        return ppf;
    }
};

TEST_F(PpfBlockedDropTest, KickThatDropsTheLastChainedRequestReleasesOnce)
{
    const auto ppf = runDropInKick(false);

    EXPECT_EQ(ppf->stats().eventsRun, 2u);
    // Busy from the load's dispatch at tick 0 to the continuation's
    // finish, which is the last event of the run.
    EXPECT_EQ(ppf->ppuStats()[0].busyTicks, eq_.now());
    EXPECT_EQ(ppf->stats().blockedStalls, 1u); // the first event only

    // The unit is free: the next load runs on it.
    ppf->notifyDemand(base() + 64, true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 3u);
}

TEST_F(PpfBlockedDropTest, KickThatDropsTheLastChainedRequestCountsNoStall)
{
    // The release inside the kick hands the unit the waiting load, so
    // the unit is executing again when the continuation's finish
    // resumes; that is the load's run, not a stall of the finished
    // event.
    const auto ppf = runDropInKick(true);

    EXPECT_EQ(ppf->stats().eventsRun, 3u);
    // The two events of "two" stall, each on its own chained requests.
    EXPECT_EQ(ppf->stats().blockedStalls, 2u);
    std::vector<Addr> targets;
    for (const auto &r : drain(*ppf))
        targets.push_back(r.vaddr);
    EXPECT_EQ(targets, (std::vector<Addr>{0x9000, 0x8000, 0x8040}));
}

/**
 * Blocked mode, release mid-emit: a continuation's plain prefetch
 * overflows the request queue and drops the unit's last other chained
 * request, which releases the unit before the continuation's own
 * chained prefetch is queued.  That prefetch must not hold the released
 * unit: if it did, the next event on the unit would wait for a fill
 * that is routed elsewhere, and the unit would never be free again.
 */
TEST_F(PpfTest, BlockedOverflowThatReleasesTheUnitMidEmitFreesIt)
{
    PpfConfig cfg;
    cfg.numPpus = 1;
    cfg.blocking = true;
    cfg.reqQueueCapacity = 2;
    auto ppf = make(cfg);

    KernelBuilder leaf("leaf");
    leaf.halt();
    KernelId k_leaf = ppf->kernels().add(leaf.build());
    KernelBuilder mix("mix");
    mix.li(1, 0x9000)
        .prefetch(1)
        .li(1, 0x9040)
        .prefetch(1)
        .li(1, static_cast<std::int64_t>(base() + 2048))
        .prefetchCb(1, k_leaf)
        .halt();
    KernelId k_mix = ppf->kernels().add(mix.build());
    // Chained targets inside the data region, so their fills carry line
    // data and run their kernels.
    KernelBuilder two("two");
    two.li(1, static_cast<std::int64_t>(base() + 1024))
        .prefetchCb(1, k_mix)
        .li(1, static_cast<std::int64_t>(base() + 1088))
        .prefetchCb(1, k_mix)
        .halt();
    KernelId k_two = ppf->kernels().add(two.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k_two;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    ppf->notifyPrefetchFill(ppf->popRequest());
    eq_.run();
    // "mix" ran on the first fill; its plain prefetches dropped the
    // second chained request and then the first plain one.
    EXPECT_EQ(ppf->stats().reqDropped, 2u);
    EXPECT_EQ(ppf->stats().blockedStalls, 1u);

    std::vector<Addr> targets;
    for (const LineRequest &r : drain(*ppf)) {
        targets.push_back(r.vaddr);
        EXPECT_EQ(r.originPpu, -1);
        ppf->notifyPrefetchFill(r);
        eq_.run();
    }
    EXPECT_EQ(targets, (std::vector<Addr>{0x9040, base() + 2048}));
    EXPECT_EQ(ppf->stats().eventsRun, 3u); // two, mix, leaf

    ppf->notifyDemand(base() + 64, true, false, 0);
    eq_.run();
    EXPECT_EQ(ppf->stats().eventsRun, 4u);
}

TEST_F(PpfTest, ActivityAccounting)
{
    PpfConfig cfg;
    cfg.numPpus = 2;
    auto ppf = make(cfg);
    KernelBuilder b("k");
    b.li(1, 1).addi(1, 1, 1).addi(1, 1, 1).prefetch(1).halt();
    KernelId k = ppf->kernels().add(b.build());
    FilterEntry fe;
    fe.base = base();
    fe.limit = base() + 1024;
    fe.onLoad = k;
    ppf->addFilter(fe);

    ppf->notifyDemand(base(), true, false, 0);
    eq_.run();
    EXPECT_GT(ppf->ppuStats()[0].busyTicks, 0u);
    EXPECT_EQ(ppf->ppuStats()[1].busyTicks, 0u);
}

} // namespace
} // namespace epf

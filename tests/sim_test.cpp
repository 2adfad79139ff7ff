/**
 * @file
 * Unit tests for the simulation kernel: event queue, clock domains,
 * RNG determinism and statistics helpers.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"
#include "sim/small_function.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace epf
{
namespace
{

TEST(EventQueueTest, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<unsigned>(i)], i);
}

TEST(EventQueueTest, EventsMayScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueTest, PastSchedulingClampsToNow)
{
    EventQueue eq;
    Tick seen = kTickMax;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { seen = eq.now(); }); // in the past
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 15u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueueTest, ExecutedCountsEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueueTest, NextEventTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextEventTick(), 42u);
}

/**
 * Pins same-tick FIFO order across the indexed heap: events pre-scheduled
 * for a tick (heap keys), events appended to that tick while it drains
 * (the O(1) ring path), and later ticks must interleave exactly in
 * insertion order.
 */
TEST(EventQueueTest, SameTickFifoAcrossHeapAndMidDrainAppends)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.scheduleIn(0, [&] { order.push_back(3); });
    });
    eq.schedule(7, [&] { order.push_back(5); });
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(4); }); // same tick, mid-drain
        eq.schedule(7, [&] { order.push_back(6); }); // behind the earlier 7
    });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.now(), 7u);
}

/**
 * Pins same-tick FIFO order across the wheel/heap boundary: an event
 * scheduled far ahead (a heap key) and events scheduled later for the
 * same tick from nearby (wheel keys) must still run in schedule-call
 * order — the heap key was scheduled first, so it runs first.
 */
TEST(EventQueueTest, SameTickFifoAcrossWheelAndHeap)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 2000; // > wheel horizon at schedule time
    eq.schedule(target, [&] { order.push_back(0); }); // heap key
    eq.schedule(1500, [&] {
        // Within the horizon now: these land in the wheel, behind the
        // heap key's earlier seq.
        eq.schedule(target, [&] { order.push_back(1); });
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), target);
}

/** Move-only captures (the DoneFn chains of the demand path). */
TEST(EventQueueTest, MoveOnlyCaptures)
{
    EventQueue eq;
    auto payload = std::make_unique<int>(41);
    int seen = 0;
    eq.schedule(1, [&seen, p = std::move(payload)] { seen = *p + 1; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

/**
 * A callback runs where its closure was built while it schedules enough
 * events to add several node chunks: its inline capture must stay
 * intact, and the events it scheduled keep their ticks and order.
 */
TEST(EventQueueTest, CallbackStateSurvivesQueueGrowthMidCallback)
{
    constexpr int kEvents = 5000;
    struct State
    {
        EventQueue eq;
        std::vector<std::pair<int, Tick>> ran;
        std::array<std::uint64_t, 4> copied{};
    } s;
    const std::array<std::uint64_t, 4> payload = {11, 22, 33, 44};
    auto fanOut = [st = &s, payload] {
        for (int i = 0; i < kEvents; ++i) {
            st->eq.scheduleIn(static_cast<Tick>(i % 2), [st, i] {
                st->ran.emplace_back(i, st->eq.now());
            });
        }
        st->copied = payload;
    };
    static_assert(sizeof(fanOut) == 40, "a 40-byte inline capture");
    s.eq.schedule(1, std::move(fanOut));
    s.eq.run();

    EXPECT_EQ(s.copied, payload);
    // Evens at tick 1 in order, then odds at tick 2.
    std::vector<std::pair<int, Tick>> expected;
    for (int i = 0; i < kEvents; i += 2)
        expected.emplace_back(i, 1);
    for (int i = 1; i < kEvents; i += 2)
        expected.emplace_back(i, 2);
    EXPECT_EQ(s.ran, expected);
}

/** An event's closure is destroyed before the next event runs. */
TEST(EventQueueTest, CallbackIsDestroyedBeforeTheNextEventRuns)
{
    struct SetOnDestroy
    {
        bool *flag;
        explicit SetOnDestroy(bool *f) : flag(f) {}
        SetOnDestroy(SetOnDestroy &&o) noexcept
            : flag(std::exchange(o.flag, nullptr))
        {
        }
        ~SetOnDestroy()
        {
            if (flag != nullptr)
                *flag = true;
        }
    };
    EventQueue eq;
    bool destroyed = false;
    bool seen = false;
    eq.schedule(3, [guard = SetOnDestroy(&destroyed)] {});
    eq.schedule(3, [&] { seen = destroyed; });
    eq.run();
    EXPECT_TRUE(seen);
}

/** Destroying a queue destroys the closures still pending in it, from
 *  the same-tick list, the wheel and the heap alike. */
TEST(EventQueueTest, DestroyingTheQueueReleasesPendingCallbacks)
{
    auto shared = std::make_shared<int>(1);
    {
        EventQueue eq;
        eq.schedule(0, [shared] {});    // same-tick list
        eq.schedule(10, [shared] {});   // wheel
        eq.schedule(5000, [shared] {}); // heap
        EXPECT_EQ(shared.use_count(), 4);
    }
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(SmallFunctionTest, EmptinessAndMoveSemantics)
{
    SmallFunction<int()> f;
    EXPECT_FALSE(f);
    f = [] { return 7; };
    EXPECT_TRUE(f);
    EXPECT_EQ(f(), 7);
    SmallFunction<int()> g = std::move(f);
    EXPECT_TRUE(g);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move): pinned semantics
    EXPECT_EQ(g(), 7);
}

/**
 * Trivially copyable callables, short and buffer-filling, and move-only
 * callables keep their state through moves.  Each move lands in a
 * wrapper whose whole buffer was just filled by a different 48-byte
 * callable, so a move that copies too few bytes leaves that callable's
 * bytes behind.
 */
TEST(SmallFunctionTest, MovesPreserveInlineCallables)
{
    using Fn = SmallFunction<int()>;
    auto bounce = [](Fn &f) {
        std::array<std::uint64_t, 6> junk;
        junk.fill(~0ULL);
        auto filler = [junk] { return static_cast<int>(junk[0]); };
        static_assert(sizeof(filler) == kSmallFunctionInline);
        std::optional<Fn> here(filler);
        *here = std::move(f);
        std::optional<Fn> there;
        for (int i = 0; i < 3; ++i) {
            there.emplace(filler);
            *there = std::move(*here);
            here.emplace(filler);
            *here = std::move(*there);
        }
        return (*here)();
    };

    const std::array<std::uint32_t, 5> small = {1, 2, 3, 4, 5};
    Fn trivial = [small] {
        int sum = 0;
        for (auto v : small)
            sum += static_cast<int>(v);
        return sum;
    };
    Fn moveOnly = [p = std::make_unique<int>(42)] { return *p; };
    const std::array<std::uint64_t, 6> six = {1, 2, 3, 4, 5, 6};
    auto fullFn = [six] {
        std::uint64_t sum = 0;
        for (auto v : six)
            sum += v;
        return static_cast<int>(sum);
    };
    static_assert(sizeof(fullFn) == kSmallFunctionInline);
    Fn full = fullFn;

    EXPECT_EQ(bounce(trivial), 15);
    EXPECT_EQ(bounce(moveOnly), 42);
    EXPECT_EQ(bounce(full), 21);
}

TEST(RingTest, FifoPushPopWrapAround)
{
    Ring<int> r;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 13; ++i)
            r.push_back(round * 100 + i);
        EXPECT_EQ(r.size(), 13u);
        for (int i = 0; i < 13; ++i) {
            EXPECT_EQ(r.front(), round * 100 + i);
            r.pop_front();
        }
        EXPECT_TRUE(r.empty());
    }
}

TEST(RingTest, GrowthPreservesOrder)
{
    Ring<int> r;
    // Offset the head so growth has to unwrap a wrapped buffer.
    for (int i = 0; i < 6; ++i)
        r.push_back(i);
    for (int i = 0; i < 4; ++i)
        r.pop_front();
    for (int i = 0; i < 40; ++i)
        r.push_back(100 + i);
    std::vector<int> got;
    while (!r.empty()) {
        got.push_back(r.front());
        r.pop_front();
    }
    ASSERT_EQ(got.size(), 42u);
    EXPECT_EQ(got[0], 4);
    EXPECT_EQ(got[1], 5);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i + 2)], 100 + i);
}

TEST(RingTest, MoveOnlyElements)
{
    Ring<std::unique_ptr<int>> r;
    for (int i = 0; i < 20; ++i)
        r.push_back(std::make_unique<int>(i));
    int expect = 0;
    while (!r.empty()) {
        EXPECT_EQ(*r.front(), expect++);
        auto p = std::move(r.front());
        r.pop_front();
    }
    EXPECT_EQ(expect, 20);
}

struct ClockCase
{
    std::uint64_t mhz;
    Tick period;
};

class ClockDomainParam : public ::testing::TestWithParam<ClockCase>
{
};

TEST_P(ClockDomainParam, PeriodMatchesFrequency)
{
    auto [mhz, period] = GetParam();
    ClockDomain cd = ClockDomain::fromMHz(mhz);
    EXPECT_EQ(cd.period(), period);
    EXPECT_NEAR(cd.frequencyHz(), mhz * 1e6, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Clocks, ClockDomainParam,
    ::testing::Values(ClockCase{3200, 5}, ClockCase{1000, 16},
                      ClockCase{2000, 8}, ClockCase{4000, 4},
                      ClockCase{500, 32}, ClockCase{250, 64},
                      ClockCase{125, 128}, ClockCase{800, 20}));

TEST(ClockDomainTest, EdgeSnapping)
{
    ClockDomain cd(16); // 1 GHz
    EXPECT_EQ(cd.edgeAtOrAfter(0), 0u);
    EXPECT_EQ(cd.edgeAtOrAfter(1), 16u);
    EXPECT_EQ(cd.edgeAtOrAfter(16), 16u);
    EXPECT_EQ(cd.edgeAfter(16), 32u);
    EXPECT_EQ(cd.cyclesToTicks(3), 48u);
    EXPECT_EQ(cd.ticksToCycles(47), 2u);
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 64; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIsTheTop53BitsScaled)
{
    Rng r(13);
    for (int i = 0; i < 10000; ++i) {
        Rng copy = r;
        const double k = static_cast<double>(copy.next() >> 11);
        ASSERT_EQ(r.uniform(), std::ldexp(k, -53));
    }
}

TEST(SplitMixTest, IsDeterministicAndMixing)
{
    EXPECT_EQ(splitmix64(1), splitmix64(1));
    EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(StatsTest, RegistrySetGet)
{
    StatRegistry r;
    EXPECT_FALSE(r.has("x"));
    EXPECT_DOUBLE_EQ(r.get("x", -1.0), -1.0);
    r.set("x", 3.5);
    EXPECT_TRUE(r.has("x"));
    EXPECT_DOUBLE_EQ(r.get("x"), 3.5);
}

TEST(StatsTest, DumpWritesCountersExactly)
{
    StatRegistry r;
    r.set("big", 6068087);
    r.set("frac", 0.125);
    r.set("huge", 0x1p60);
    std::ostringstream os;
    r.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find(" 6068087\n"), std::string::npos) << out;
    EXPECT_NE(out.find(" 0.125\n"), std::string::npos) << out;
    // Past 2^53 a double no longer holds every integer: keep the
    // stream's format.
    EXPECT_NE(out.find(" 1.15292e+18\n"), std::string::npos) << out;
}

TEST(StatsTest, SampleSummaryQuartiles)
{
    SampleSummary s =
        SampleSummary::of({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.q1, 2.0);
    EXPECT_DOUBLE_EQ(s.q3, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(StatsTest, SampleSummaryEmptyAndSingle)
{
    SampleSummary e = SampleSummary::of({});
    EXPECT_DOUBLE_EQ(e.max, 0.0);
    SampleSummary one = SampleSummary::of({7.0});
    EXPECT_DOUBLE_EQ(one.min, 7.0);
    EXPECT_DOUBLE_EQ(one.median, 7.0);
    EXPECT_DOUBLE_EQ(one.max, 7.0);
}

TEST(StatsTest, Geomean)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({3.0}), 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    // Non-positive entries are ignored.
    EXPECT_NEAR(geomean({2.0, 8.0, 0.0}), 4.0, 1e-9);
}

TEST(TypesTest, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineOffset(0x1234), 0x34u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
}

} // namespace
} // namespace epf

/**
 * @file
 * Tests for the multi-core machine model: the CorePort/Uncore split,
 * L2 bank arbitration, the shared-read/exclusive-write coherence
 * directory, workload sharding, stream-id namespacing, per-core stat
 * prefixes, determinism across host thread counts, and the multi-core
 * trace-capture guard.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cpu/core.hpp"
#include "mem/core_port.hpp"
#include "mem/uncore.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "sim/event_queue.hpp"
#include "workloads/workload.hpp"

namespace epf
{
namespace
{

constexpr double kTinyScale = 0.004;

RunConfig
tinyConfig(Technique t, unsigned cores)
{
    RunConfig cfg;
    cfg.technique = t;
    cfg.scale.factor = kTinyScale;
    cfg.cores = cores;
    return cfg;
}

/** Flatten a result's full stats block for exact comparison. */
std::string
statsKey(const RunResult &r)
{
    std::string s = std::to_string(r.cycles) + "/" +
                    std::to_string(r.instrs) + "/" +
                    std::to_string(r.ticks) + "/" +
                    std::to_string(r.checksum);
    for (const auto &[k, v] : r.detail.all())
        s += ";" + k + "=" + std::to_string(v);
    return s;
}

// ---------------------------------------------------------------------
// Machine assembly
// ---------------------------------------------------------------------

TEST(UncoreTest, BankingSplitsCapacityAndSelectsByLine)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 1);
    gm.addRegion("buf", buf.data(), buf.size() * 8);

    MemParams p = MemParams::defaults();
    Uncore quad(eq, gm, p, 4); // l2Banks = 0 -> one bank per port
    EXPECT_EQ(quad.banks(), 4u);
    EXPECT_EQ(quad.l2Bank(0).params().sizeBytes, p.l2.sizeBytes / 4);
    EXPECT_EQ(quad.l2Bank(0).params().mshrs, p.l2.mshrs / 4);

    p.l2Banks = 2;
    Uncore two(eq, gm, p, 4);
    EXPECT_EQ(two.banks(), 2u);
}

TEST(UncoreTest, SinglePortForwardsWithoutArbitration)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 1);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);

    Uncore uc(eq, gm, MemParams::defaults(), 1);
    int done = 0;
    LineRequest req;
    req.vaddr = va;
    req.paddr = va;
    uc.port(0).readLine(req, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(uc.stats().arbGrants, 0u); // pass-through path
}

TEST(UncoreTest, ContendingPortsGrantRoundRobin)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(4096, 1);
    Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);

    MemParams p = MemParams::defaults();
    p.l2Banks = 1; // force every request onto one arbiter
    Uncore uc(eq, gm, p, 2);

    // Two ports each queue two reads in the same tick.
    std::vector<int> order;
    for (int i = 0; i < 2; ++i) {
        for (unsigned port = 0; port < 2; ++port) {
            LineRequest req;
            req.vaddr = va + (static_cast<Addr>(order.size()) + 1) * 64;
            req.paddr = req.vaddr;
            const int tag = static_cast<int>(port) * 10 + i;
            uc.port(port).readLine(req, [&order, tag] {
                order.push_back(tag);
            });
        }
    }
    eq.run();
    // Grants alternate between the ports, starting at port 0; every
    // grant but the last finds the other port waiting too.
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11}));
    EXPECT_EQ(uc.stats().arbGrants, 4u);
    EXPECT_EQ(uc.stats().arbConflicts, 3u);
}

/** An idle arbiter grants in the arrival tick: one read through any
 *  port of a multi-port uncore completes when the single-port bypass
 *  does. */
TEST(UncoreTest, UncontendedReadAddsNoArbitrationLatency)
{
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 1);
    const Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);

    auto doneTick = [&](unsigned ports, unsigned port) {
        EventQueue eq;
        Uncore uc(eq, gm, MemParams::defaults(), ports);
        LineRequest req;
        req.vaddr = va;
        req.paddr = va;
        Tick done = 0;
        uc.port(port).readLine(req, [&] { done = eq.now(); });
        eq.run();
        return done;
    };
    const Tick bypass = doneTick(1, 0);
    EXPECT_EQ(bypass, 900u);
    EXPECT_EQ(doneTick(2, 1), bypass);
    EXPECT_EQ(doneTick(4, 3), bypass);
}

/** Banks due in the same tick are granted in bank-index order, whatever
 *  order their requests arrived in: bank 0's read reaches DRAM first. */
TEST(UncoreTest, SameTickBanksGrantInBankOrder)
{
    EventQueue eq;
    GuestMemory gm;
    std::vector<std::uint64_t> buf(1024, 1);
    const Addr va = gm.addRegion("buf", buf.data(), buf.size() * 8);

    MemParams p = MemParams::defaults();
    p.l2Banks = 2;
    Uncore uc(eq, gm, p, 2);

    LineRequest bank1;
    bank1.vaddr = va + 64;
    bank1.paddr = bank1.vaddr;
    LineRequest bank0;
    bank0.vaddr = va + 128;
    bank0.paddr = bank0.vaddr;
    Tick port0Done = 0;
    Tick port1Done = 0;
    uc.port(0).readLine(bank1, [&] { port0Done = eq.now(); });
    uc.port(1).readLine(bank0, [&] { port1Done = eq.now(); });
    eq.run();

    EXPECT_EQ(uc.stats().arbGrants, 2u);
    EXPECT_EQ(uc.stats().arbConflicts, 0u);
    EXPECT_EQ(port1Done, 900u);
    EXPECT_EQ(port0Done, 980u);
}

// ---------------------------------------------------------------------
// Coherence directory
// ---------------------------------------------------------------------

class TwoCoreFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        buf_.assign(1 << 14, 7);
        base_ = gm_.addRegion("buf", buf_.data(), buf_.size() * 8);
        uncore_ = std::make_unique<Uncore>(eq_, gm_, params_, 2);
        for (unsigned i = 0; i < 2; ++i) {
            ports_.push_back(std::make_unique<CorePort>(
                eq_, gm_, *uncore_, params_, i));
        }
    }

    /** Issue a demand access on port @p p and run to completion. */
    void
    access(unsigned p, Addr va, bool is_load)
    {
        bool done = false;
        if (is_load)
            ports_[p]->load(va, 0, [&done] { done = true; });
        else
            ports_[p]->store(va, 0, [&done] { done = true; });
        eq_.run();
        ASSERT_TRUE(done);
    }

    EventQueue eq_;
    GuestMemory gm_;
    MemParams params_ = MemParams::defaults();
    std::vector<std::uint64_t> buf_;
    Addr base_ = 0;
    std::unique_ptr<Uncore> uncore_;
    std::vector<std::unique_ptr<CorePort>> ports_;
};

TEST_F(TwoCoreFixture, WriteInvalidatesRemoteSharers)
{
    // Both cores read the same line: two shared copies.
    access(0, base_, true);
    access(1, base_, true);
    // The physical line address comes from the page table; both L1s
    // hold it now.
    EXPECT_EQ(uncore_->stats().invalidations, 0u);

    // Core 1 writes the line: core 0's copy must drop.
    access(1, base_ + 8, false);
    EXPECT_EQ(uncore_->stats().invalidations, 1u);
    EXPECT_EQ(ports_[0]->l1().stats().invalidations, 1u);

    // Core 0's next load of the line misses again (copy was dropped).
    const auto misses_before = ports_[0]->l1().stats().loads -
                               ports_[0]->l1().stats().loadHits;
    access(0, base_, true);
    const auto misses_after = ports_[0]->l1().stats().loads -
                              ports_[0]->l1().stats().loadHits;
    EXPECT_EQ(misses_after, misses_before + 1);
}

TEST_F(TwoCoreFixture, RemoteReadDowngradesExclusiveOwner)
{
    // Core 0 writes a line (exclusive), then core 1 reads it.
    access(0, base_ + 4096, false);
    EXPECT_EQ(uncore_->stats().downgrades, 0u);
    access(1, base_ + 4096, true);
    EXPECT_EQ(uncore_->stats().downgrades, 1u);
    // The owner keeps its copy: a re-read still hits.
    const auto hits_before = ports_[0]->l1().stats().loadHits;
    access(0, base_ + 4096, true);
    EXPECT_EQ(ports_[0]->l1().stats().loadHits, hits_before + 1);
}

TEST_F(TwoCoreFixture, DirtyLineWritesBackOnInvalidation)
{
    access(0, base_ + 8192, false); // dirty in core 0
    const auto wb_before = ports_[0]->l1().stats().writebacks;
    access(1, base_ + 8192, false); // core 1 takes exclusive
    EXPECT_EQ(ports_[0]->l1().stats().writebacks, wb_before + 1);
}

// ---------------------------------------------------------------------
// Stream-id namespacing
// ---------------------------------------------------------------------

TEST_F(TwoCoreFixture, CoreIdNamespacesStreamIds)
{
    class Recorder : public MemoryListener
    {
      public:
        std::vector<int> streams;
        void
        notifyDemand(Addr, bool, bool, int stream_id) override
        {
            streams.push_back(stream_id);
        }
    };

    Recorder rec0, rec1;
    ports_[0]->setListener(&rec0);
    ports_[1]->setListener(&rec1);
    Core c0(eq_, CoreParams{}, *ports_[0], 0);
    Core c1(eq_, CoreParams{}, *ports_[1], 1);

    auto one_load = [this](std::int16_t stream) -> Generator<MicroOp> {
        OpFactory f;
        ValueId v;
        co_yield f.load(base_, stream, v);
    };
    bool d0 = false, d1 = false;
    c0.run(one_load(5), [&d0] { d0 = true; });
    c1.run(one_load(5), [&d1] { d1 = true; });
    eq_.run();
    ASSERT_TRUE(d0 && d1);
    ASSERT_EQ(rec0.streams.size(), 1u);
    ASSERT_EQ(rec1.streams.size(), 1u);
    EXPECT_EQ(rec0.streams[0], 5);                             // identity
    EXPECT_EQ(rec1.streams[0], 5 | (1 << kStreamIdCoreShift)); // tagged
}

// ---------------------------------------------------------------------
// Sharded experiments
// ---------------------------------------------------------------------

TEST(MulticoreExperiment, ShardedRunsReproduceSerialChecksum)
{
    // RandAcc shards by LFSR stream (XOR updates commute); HJ shards
    // by probe range (disjoint output slices).  Either way the final
    // data — and so the checksum — must match the serial run exactly.
    for (const std::string wl : {"RandAcc", "HJ-2", "HJ-8"}) {
        const auto serial = runExperiment(wl, tinyConfig(Technique::kNone, 1));
        for (unsigned cores : {2u, 4u}) {
            const auto r =
                runExperiment(wl, tinyConfig(Technique::kNone, cores));
            EXPECT_EQ(r.checksum, serial.checksum)
                << wl << " at " << cores << " cores";
            // Total work matches the serial run except for branch-miss
            // markers: each shard models its own last-outcome predictor,
            // so at most a few ops differ at shard boundaries.
            const std::uint64_t hi = serial.instrs + 2 * cores;
            const std::uint64_t lo = serial.instrs - 2 * cores;
            EXPECT_GE(r.instrs, lo) << wl << " total work";
            EXPECT_LE(r.instrs, hi) << wl << " total work";
        }
    }
}

TEST(MulticoreExperiment, SerialWorkloadRunsOnCoreZero)
{
    ASSERT_FALSE(makeWorkload("IntSort")->supportsSharding());
    const auto serial = runExperiment("IntSort",
                                      tinyConfig(Technique::kNone, 1));
    const auto r = runExperiment("IntSort", tinyConfig(Technique::kNone, 2));
    EXPECT_EQ(r.checksum, serial.checksum);
    EXPECT_EQ(r.detail.get("core1.instrs", -1.0), 0.0);
    EXPECT_GT(r.detail.get("core0.instrs", -1.0), 0.0);

    // An idle second core must not throttle the busy one: the arbiter
    // paces only queued-behind-each-other work, so a serial workload
    // on a 2-core machine runs within a whisker of the 1-core machine
    // (same L2 capacity via one bank to keep geometry comparable).
    RunConfig same_l2 = tinyConfig(Technique::kNone, 2);
    same_l2.mem.l2Banks = 1;
    const auto r1bank = runExperiment("IntSort", same_l2);
    EXPECT_LT(static_cast<double>(r1bank.cycles),
              1.02 * static_cast<double>(serial.cycles));
}

TEST(MulticoreExperiment, NonPowerOfTwoCoresGetPowerOfTwoBanks)
{
    // cores=3 must run (banks auto-derive to 2, the largest power of
    // two <= ports); an explicit non-power-of-two bank count is a
    // configuration error.
    const auto serial = runExperiment("RandAcc",
                                      tinyConfig(Technique::kNone, 1));
    const auto r = runExperiment("RandAcc", tinyConfig(Technique::kNone, 3));
    EXPECT_EQ(r.checksum, serial.checksum);
    EXPECT_EQ(r.detail.get("uncore.l2Banks", -1.0), 2.0);

    RunConfig bad = tinyConfig(Technique::kNone, 2);
    bad.mem.l2Banks = 3;
    EXPECT_THROW(runExperiment("RandAcc", bad), std::invalid_argument);
}

TEST(MulticoreExperiment, PerCoreStatPrefixesAndUncoreBlock)
{
    const auto one = runExperiment("RandAcc",
                                   tinyConfig(Technique::kManual, 1));
    // Single-core runs publish the historical unprefixed names.
    EXPECT_TRUE(one.detail.has("core.cycles"));
    EXPECT_TRUE(one.detail.has("l1.loads"));
    EXPECT_TRUE(one.detail.has("ppf.eventsRun"));
    EXPECT_FALSE(one.detail.has("core0.core.cycles"));
    EXPECT_FALSE(one.detail.has("uncore.arbGrants"));

    const auto two = runExperiment("RandAcc",
                                   tinyConfig(Technique::kManual, 2));
    EXPECT_TRUE(two.detail.has("core0.cycles"));
    EXPECT_TRUE(two.detail.has("core1.cycles"));
    EXPECT_TRUE(two.detail.has("core0.l1.loads"));
    EXPECT_TRUE(two.detail.has("core1.ppf.eventsRun"));
    EXPECT_FALSE(two.detail.has("core.cycles"));
    EXPECT_TRUE(two.detail.has("uncore.arbGrants"));
    EXPECT_GT(two.detail.get("uncore.arbGrants"), 0.0);
    EXPECT_TRUE(two.detail.has("l2.b0.reads"));
    EXPECT_TRUE(two.detail.has("l2.b1.reads"));
    // Both cores ran PPUs: activity vector covers each core's PPUs.
    EXPECT_EQ(two.ppuActivity.size(), 2 * one.ppuActivity.size());
}

TEST(MulticoreExperiment, TraceCaptureRejectedWithMultipleCores)
{
    RunConfig cfg = tinyConfig(Technique::kNone, 2);
    cfg.tracePath = "/tmp/epf_multicore_capture_should_not_exist.trc";
    EXPECT_THROW(runExperiment("RandAcc", cfg), std::invalid_argument);
}

TEST(MulticoreExperiment, DuplicateStatNamesRejected)
{
    StatRegistry reg;
    reg.setUnique("a.b", 1.0);
    EXPECT_THROW(reg.setUnique("a.b", 2.0), std::logic_error);
    reg.set("a.b", 3.0); // plain set still overwrites
    EXPECT_EQ(reg.get("a.b"), 3.0);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(MulticoreDeterminism, RunToRunStatsIdenticalAtFourCores)
{
    const auto a = runExperiment("RandAcc", tinyConfig(Technique::kManual, 4));
    const auto b = runExperiment("RandAcc", tinyConfig(Technique::kManual, 4));
    EXPECT_EQ(statsKey(a), statsKey(b));
}

TEST(MulticoreDeterminism, SweepThreadCountDoesNotChangeStats)
{
    // The same cores=4 grid swept with 1 worker thread and with 4 must
    // produce bit-identical stats (the EPF_THREADS=1 vs N guarantee).
    auto make = [](unsigned threads) {
        SweepEngine::Options opts;
        opts.threads = threads;
        SweepEngine e(opts);
        for (const std::string wl : {"RandAcc", "HJ-8"}) {
            for (Technique t : {Technique::kNone, Technique::kStride}) {
                e.add(wl, tinyConfig(t, 4));
            }
        }
        return e.run();
    };
    const auto a = make(1);
    const auto b = make(4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_FALSE(a[i].failed);
        ASSERT_FALSE(b[i].failed);
        EXPECT_EQ(statsKey(a[i].result), statsKey(b[i].result)) << i;
    }
}

} // namespace
} // namespace epf

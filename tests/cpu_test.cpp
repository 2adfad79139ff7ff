/**
 * @file
 * Unit tests for the out-of-order core model: dependence-limited MLP,
 * ROB capacity, branch-mispredict stalls, issue and execute order, and
 * trace bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hpp"
#include "cpu/generator.hpp"
#include "cpu/micro_op.hpp"
#include "isa/builder.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "ppf/ppf.hpp"
#include "sim/event_queue.hpp"

namespace epf
{
namespace
{

TEST(GeneratorTest, YieldsAllValues)
{
    auto gen = []() -> Generator<int> {
        for (int i = 0; i < 5; ++i)
            co_yield i;
    }();
    std::vector<int> got;
    while (gen.next())
        got.push_back(gen.value());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_FALSE(gen.next());
}

TEST(GeneratorTest, MoveTransfersOwnership)
{
    auto gen = []() -> Generator<int> { co_yield 1; }();
    Generator<int> other = std::move(gen);
    EXPECT_TRUE(other.next());
    EXPECT_EQ(other.value(), 1);
}

/** Test fixture providing a small memory system and core. */
class CoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        eq_ = std::make_unique<EventQueue>();
        gmem_ = std::make_unique<GuestMemory>();
        buf_.assign(1 << 16, 1); // 512 KB: misses L1, mostly misses L2
        base_ = gmem_->addRegion("buf", buf_.data(), buf_.size() * 8);
        mem_ = std::make_unique<MemoryHierarchy>(*eq_, *gmem_,
                                                 MemParams::defaults());
        core_ = std::make_unique<Core>(*eq_, CoreParams{}, mem_->port());
    }

    Addr at(std::size_t i) { return base_ + i * 8; }

    /** Element index of the first page boundary inside the buffer, so
     *  tests can keep all accesses within one 4 KB page.  Guest bases
     *  are page-aligned, so the buffer starts on a boundary. */
    std::size_t
    pageStart() const
    {
        return (kPageBytes - (base_ % kPageBytes)) % kPageBytes / 8;
    }

    /** Run a trace to completion, return consumed core cycles. */
    std::uint64_t
    run(Generator<MicroOp> trace)
    {
        bool done = false;
        core_->run(std::move(trace), [&done] { done = true; });
        while (!eq_->empty())
            eq_->runOne();
        EXPECT_TRUE(done);
        return core_->stats().cycles;
    }

    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<GuestMemory> gmem_;
    std::vector<std::uint64_t> buf_;
    Addr base_ = 0;
    std::unique_ptr<MemoryHierarchy> mem_;
    std::unique_ptr<Core> core_;
};

TEST_F(CoreTest, IndependentLoadsOverlap)
{
    // 8 loads to distinct lines within one page (a single TLB walk), no
    // dependences: should take roughly one memory latency, not eight.
    auto indep = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        for (int i = 0; i < 8; ++i) {
            ValueId v;
            co_yield f.load(at(p + static_cast<std::size_t>(i) * 8), 1, v);
        }
    };
    std::uint64_t t_indep = run(indep());

    // Reset with a fresh core+memory for the dependent case.
    SetUp();
    auto dep = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        ValueId prev = 0;
        for (int i = 0; i < 8; ++i) {
            ValueId v;
            co_yield f.load(at(p + 256 + static_cast<std::size_t>(i) * 8),
                            1, v, prev);
            prev = v;
        }
    };
    std::uint64_t t_dep = run(dep());

    // Dependent chains must be several times slower.
    EXPECT_GT(t_dep, t_indep * 3);
}

TEST_F(CoreTest, RobLimitsOverlap)
{
    // Many independent loads padded with work so each iteration takes
    // ~20 ROB slots: a 40-entry ROB can only hold 2 -> low MLP.  All
    // lines live in one page so TLB effects cancel.
    auto padded = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        for (int i = 0; i < 32; ++i) {
            ValueId v;
            co_yield f.load(at(p + static_cast<std::size_t>(i) * 8), 1, v);
            co_yield OpFactory::work(19);
        }
    };
    std::uint64_t t_padded = run(padded());

    SetUp();
    auto lean = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        for (int i = 0; i < 32; ++i) {
            ValueId v;
            co_yield f.load(at(p + static_cast<std::size_t>(i) * 8), 1, v);
            co_yield OpFactory::work(1);
        }
    };
    std::uint64_t t_lean = run(lean());
    EXPECT_GT(t_padded, t_lean + t_lean / 2);
}

TEST_F(CoreTest, WorkOnlyTraceIsDispatchBound)
{
    auto work = []() -> Generator<MicroOp> {
        for (int i = 0; i < 100; ++i)
            co_yield OpFactory::work(3);
    };
    std::uint64_t cycles = run(work());
    // 300 instructions at 3 wide ~ 100 cycles (+ pipeline edges).
    EXPECT_GE(cycles, 100u);
    EXPECT_LE(cycles, 140u);
    EXPECT_EQ(core_->stats().instrs, 300u);
}

TEST_F(CoreTest, BranchMissCollapsesMlp)
{
    // A mispredicted branch between two independent misses: the second
    // load cannot issue until the first resolves, so the two latencies
    // serialise instead of overlapping.
    auto branchy = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        ValueId a;
        co_yield f.load(at(p), 1, a);
        co_yield OpFactory::branchMiss(a);
        ValueId b;
        co_yield f.load(at(p + 64), 1, b); // same page, other line
    };
    std::uint64_t t_branchy = run(branchy());
    EXPECT_EQ(core_->stats().branchMisses, 1u);

    SetUp();
    auto straight = [this]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        ValueId a;
        co_yield f.load(at(p), 1, a);
        ValueId b;
        co_yield f.load(at(p + 64), 1, b);
    };
    std::uint64_t t_straight = run(straight());

    // The second access serialises behind the branch resolution (its
    // exact cost depends on DRAM row state; the gap must be visible).
    EXPECT_GT(t_branchy, t_straight + 30);
    EXPECT_EQ(core_->stats().branchMisses, 0u); // straight trace
}

TEST_F(CoreTest, StoresDoNotBlockRetirement)
{
    auto stores = [this]() -> Generator<MicroOp> {
        for (int i = 0; i < 16; ++i)
            co_yield OpFactory::store(at(static_cast<std::size_t>(i) * 256),
                                      1);
    };
    std::uint64_t cycles = run(stores());
    // 16 store misses would be ~16 x 100+ cycles if serialised; the SQ
    // lets them drain in the background.
    EXPECT_LT(cycles, 800u);
    EXPECT_EQ(core_->stats().stores, 16u);
}

TEST_F(CoreTest, SwPrefetchConvertsMissesToHits)
{
    const unsigned n = 32;
    auto with_pf = [this, n]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        for (unsigned i = 0; i < n; ++i) {
            if (i + 8 < n)
                co_yield OpFactory::swpf(at(p + (i + 8) * 8));
            ValueId v;
            co_yield f.load(at(p + i * 8), 1, v);
            co_yield OpFactory::workDep(6, v);
        }
    };
    std::uint64_t t_pf = run(with_pf());
    EXPECT_EQ(core_->stats().swPrefetches, n - 8);
    std::uint64_t hits_pf = mem_->l1().stats().loadHits;
    std::uint64_t pf_used =
        mem_->l1().stats().pfUsed + mem_->l1().stats().pfUsedLate;
    EXPECT_GT(mem_->l1().stats().prefetchFills, 0u);
    EXPECT_GT(pf_used, 0u);

    SetUp();
    auto without = [this, n]() -> Generator<MicroOp> {
        OpFactory f;
        std::size_t p = pageStart();
        for (unsigned i = 0; i < n; ++i) {
            ValueId v;
            co_yield f.load(at(p + i * 8), 1, v);
            co_yield OpFactory::workDep(6, v);
        }
    };
    std::uint64_t t_plain = run(without());
    std::uint64_t hits_plain = mem_->l1().stats().loadHits;

    // Prefetching converts misses into hits/merges and must not slow
    // the run down materially.
    EXPECT_GE(hits_pf + mem_->l1().stats().demandMerges, hits_plain);
    EXPECT_LT(t_pf, t_plain + t_plain / 5);
}

TEST_F(CoreTest, PfConfigRunsAtDispatch)
{
    bool configured = false;
    auto tr = [&]() -> Generator<MicroOp> {
        co_yield OpFactory::pfConfig(4, [&] { configured = true; });
        co_yield OpFactory::work(2);
    };
    run(tr());
    EXPECT_TRUE(configured);
    EXPECT_EQ(core_->stats().configOps, 1u);
    EXPECT_EQ(core_->stats().instrs, 6u);
}

TEST_F(CoreTest, PfConfigKernelMutationMidTraceTakesEffect)
{
    // Callback-kernel dispatch across a mid-trace reconfiguration: a
    // PfConfig op registers a kernel, a load triggers it, a second
    // PfConfig patches the kernel's code in place (the relocation
    // idiom), and the next load must run the *patched* program, not
    // stale code.
    ProgrammablePrefetcher ppf(*eq_, *gmem_, PpfConfig{});
    mem_->setListener(&ppf); // no prefetch source: requests stay queued

    std::vector<Addr> emitted;
    auto drain = [&] {
        while (ppf.hasRequest())
            emitted.push_back(ppf.popRequest().vaddr);
    };

    KernelId k = kNoKernel;
    auto tr = [&]() -> Generator<MicroOp> {
        co_yield OpFactory::pfConfig(4, [&] {
            KernelBuilder b("constpf");
            b.li(1, 0x1000).prefetch(1).halt();
            k = ppf.kernels().add(b.build());
            FilterEntry fe;
            fe.name = "buf";
            fe.base = base_;
            fe.limit = base_ + 4096;
            fe.onLoad = k;
            ppf.addFilter(fe);
        });
        ValueId v1;
        co_yield OpFactory{}.load(at(0), 1, v1);
        co_yield OpFactory::workDep(64, v1); // let the event finish
        co_yield OpFactory::pfConfig(4, [&] {
            drain();
            ppf.kernels().mutableKernel(k).code[0].imm = 0x2000;
        });
        ValueId v2;
        co_yield OpFactory{}.load(at(1), 1, v2);
        co_yield OpFactory::workDep(64, v2);
    };
    run(tr());
    drain();

    ASSERT_EQ(ppf.stats().eventsRun, 2u);
    ASSERT_EQ(emitted.size(), 2u);
    EXPECT_EQ(emitted[0], 0x1000u);
    EXPECT_EQ(emitted[1], 0x2000u);
}

TEST_F(CoreTest, PfConfigMutationFromTrapFreeToTrappingTakesEffect)
{
    // Regression for stale kernel code: the first kernel is proven
    // trap-free.  A mid-trace PfConfig then patches an interior
    // instruction into an unconditional trap (divi #0).  The PPF must
    // run the patched code, so the next event traps instead of
    // emitting from the old proven-safe kernel.
    ProgrammablePrefetcher ppf(*eq_, *gmem_, PpfConfig{});
    mem_->setListener(&ppf);

    std::vector<Addr> emitted;
    auto drain = [&] {
        while (ppf.hasRequest())
            emitted.push_back(ppf.popRequest().vaddr);
    };

    KernelId k = kNoKernel;
    auto tr = [&]() -> Generator<MicroOp> {
        co_yield OpFactory::pfConfig(4, [&] {
            KernelBuilder b("safe");
            b.li(1, 0x1000).addi(1, 1, 0x40).prefetch(1).halt();
            k = ppf.kernels().add(b.build());
            FilterEntry fe;
            fe.name = "buf";
            fe.base = base_;
            fe.limit = base_ + 4096;
            fe.onLoad = k;
            ppf.addFilter(fe);
        });
        ValueId v1;
        co_yield OpFactory{}.load(at(0), 1, v1);
        co_yield OpFactory::workDep(64, v1);
        co_yield OpFactory::pfConfig(4, [&] {
            drain();
            // addi -> divi #0: now traps on every execution.
            ppf.kernels().mutableKernel(k).code[1] =
                Instr{Opcode::kDivi, 1, 1, 0, 0};
        });
        ValueId v2;
        co_yield OpFactory{}.load(at(1), 1, v2);
        co_yield OpFactory::workDep(64, v2);
    };
    run(tr());
    drain();

    ASSERT_EQ(ppf.stats().eventsRun, 2u);
    EXPECT_EQ(ppf.stats().traps, 1u);
    ASSERT_EQ(emitted.size(), 1u); // only the pre-patch event emitted
    EXPECT_EQ(emitted[0], 0x1040u);
}

TEST_F(CoreTest, ValueDependenceThroughWork)
{
    // load -> work(value) -> dependent load must serialise.
    auto tr = [this]() -> Generator<MicroOp> {
        OpFactory f;
        ValueId v1;
        co_yield f.load(at(0), 1, v1);
        ValueId v2;
        co_yield f.workVal(2, v2, v1);
        ValueId v3;
        co_yield f.load(at(4096), 1, v3, v2);
    };
    std::uint64_t cycles = run(tr());
    // Two full dependent miss latencies (~2 x 100ns = 640 cycles).
    EXPECT_GT(cycles, 500u);
}

/** Logs every demand access as it reaches the L1. */
class DemandLog : public MemoryListener
{
  public:
    struct Access
    {
        Tick when;
        Addr vaddr;
        bool isLoad;
    };

    explicit DemandLog(const EventQueue &eq) : eq_(eq) {}

    void
    notifyDemand(Addr vaddr, bool is_load, bool, int) override
    {
        accesses.push_back({eq_.now(), vaddr, is_load});
    }

    /** When @p vaddr was first accessed (fails the test if never). */
    Tick
    whenAccessed(Addr vaddr) const
    {
        for (const Access &a : accesses) {
            if (a.vaddr == vaddr)
                return a.when;
        }
        ADD_FAILURE() << "no access to " << vaddr;
        return 0;
    }

    std::vector<Access> accesses;

  private:
    const EventQueue &eq_;
};

TEST_F(CoreTest, ReadyMemOpsIssueInProgramOrderWithinPortLimit)
{
    // Five ops wait on one load R.  When R's data returns they are all
    // ready in the same cycle: the two LSU ports take L0 and L1, the
    // store S still issues behind them, and L2/L3 go one cycle later.
    DemandLog log(*eq_);
    mem_->setListener(&log);
    const std::size_t p = pageStart();
    const Addr r = at(p), l0 = at(p + 8), l1 = at(p + 16), s = at(p + 24),
               l2 = at(p + 32), l3 = at(p + 40);
    auto tr = [&]() -> Generator<MicroOp> {
        OpFactory f;
        ValueId v;
        co_yield f.load(r, 1, v);
        co_yield f.loadDiscard(l0, 2, v);
        co_yield f.loadDiscard(l1, 3, v);
        co_yield OpFactory::store(s, 4, v);
        co_yield f.loadDiscard(l2, 5, v);
        co_yield f.loadDiscard(l3, 6, v);
    };
    run(tr());

    std::vector<Addr> order;
    for (const DemandLog::Access &a : log.accesses)
        order.push_back(a.vaddr);
    ASSERT_EQ(order, (std::vector<Addr>{r, l0, l1, s, l2, l3}));
    EXPECT_FALSE(log.accesses[3].isLoad);
    const Tick first = log.whenAccessed(l0);
    EXPECT_GT(first, log.whenAccessed(r));
    EXPECT_EQ(log.whenAccessed(l1), first);
    EXPECT_EQ(log.whenAccessed(s), first);
    EXPECT_EQ(log.whenAccessed(l2), first + CoreParams{}.period);
    EXPECT_EQ(log.whenAccessed(l3), first + CoreParams{}.period);
}

TEST_F(CoreTest, WorkChainResolvesWithinOneCycle)
{
    // A Work op that completes forwards its value to later Work ops of
    // the same cycle, so a load behind three chained workVal ops issues
    // as early after R as a load that depends on R directly.
    auto issueGap = [this](unsigned chain) {
        SetUp();
        const Addr r = at(pageStart()), d = at(pageStart() + 64);
        DemandLog log(*eq_);
        mem_->setListener(&log);
        auto tr = [&]() -> Generator<MicroOp> {
            OpFactory f;
            ValueId v;
            co_yield f.load(r, 1, v);
            for (unsigned i = 0; i < chain; ++i) {
                ValueId w;
                co_yield f.workVal(1, w, v);
                v = w;
            }
            co_yield f.loadDiscard(d, 2, v);
        };
        run(tr());
        return log.whenAccessed(d) - log.whenAccessed(r);
    };
    const Tick direct = issueGap(0);
    EXPECT_GT(direct, 0u);
    EXPECT_EQ(issueGap(3), direct);
}

TEST_F(CoreTest, SleepDoesNotChangeCycleAccounting)
{
    // One long miss: cycles must cover the whole stall even though the
    // core slept through it.
    auto tr = [this]() -> Generator<MicroOp> {
        OpFactory f;
        ValueId v;
        co_yield f.load(at(0), 1, v);
        co_yield OpFactory::workDep(1, v);
    };
    std::uint64_t cycles = run(tr());
    Tick total = eq_->now();
    EXPECT_NEAR(static_cast<double>(cycles),
                static_cast<double>(total) / 5.0, 16.0);
}

} // namespace
} // namespace epf

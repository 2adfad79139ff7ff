/**
 * @file
 * Workload tests: generator properties, functional correctness against
 * plain reference implementations, trace validity (every access lands in
 * a registered region) and IR well-formedness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "compiler/passes.hpp"
#include "mem/guest_memory.hpp"
#include "sim/rng.hpp"
#include "workloads/graph_gen.hpp"
#include "workloads/intsort.hpp"
#include "workloads/randacc.hpp"
#include "workloads/workload.hpp"

namespace epf
{
namespace
{

TEST(GraphGenTest, RmatSizesAndRange)
{
    Rng rng(1);
    EdgeList e = rmatEdges(10, 8, rng);
    EXPECT_EQ(e.size(), (1u << 10) * 8u);
    for (const auto &[u, v] : e) {
        EXPECT_LT(u, 1u << 10);
        EXPECT_LT(v, 1u << 10);
    }
}

TEST(GraphGenTest, RmatIsDeterministic)
{
    Rng a(7), b(7);
    EXPECT_EQ(rmatEdges(8, 4, a), rmatEdges(8, 4, b));
}

/** FNV-1a over an edge list's endpoints, in order. */
std::uint64_t
hashEdges(const EdgeList &edges)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto &[u, v] : edges) {
        for (std::uint32_t w : {u, v}) {
            h ^= w;
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

// The G500-CSR and G500-List inputs at the golden scale.  Every G500
// golden, checksum and trace derives from these edges, so a change to
// the generator must reproduce them exactly.
TEST(GraphGenTest, RmatEdgesArePinned)
{
    Rng csr(0xE7F5EED5);
    EXPECT_EQ(hashEdges(rmatEdges(14, 8, csr)), 0x557EA8E7DD023998ULL);
    Rng list(0xE7F5EED5);
    EXPECT_EQ(hashEdges(rmatEdges(12, 16, list)), 0xE2DE4F99CDA3D715ULL);
}

/** One level's bits as a compare-and-branch chain on uniform() picks them. */
std::pair<std::uint64_t, std::uint64_t>
bitsOf(double r)
{
    const double ab = kRmatA + kRmatB;
    if (r < kRmatA)
        return {0, 0};
    if (r < ab)
        return {0, 1};
    if (r < ab + kRmatC)
        return {1, 0};
    return {1, 1};
}

// uniformBound(t) must decide every k around it as uniform() < t does.
// The R-MAT bounds lie in [0.5, 1), where t * 2^53 is an integer; below
// 0.5 it need not be, and the bound must round up.
TEST(GraphGenTest, UniformBoundDecidesTheDoubleCompare)
{
    const double ab = kRmatA + kRmatB;
    for (double t : {kRmatA, ab, ab + kRmatC, 0.1, 1.0 / 3.0}) {
        const std::uint64_t kt = uniformBound(t);
        EXPECT_EQ(static_cast<double>(kt), std::ceil(std::ldexp(t, 53)));
        for (std::uint64_t k = kt - 2; k <= kt + 1; ++k)
            EXPECT_EQ(k < kt, std::ldexp(static_cast<double>(k), -53) < t)
                << t << " at k = " << k;
    }
}

// rmatBits compares (next() >> 11) against these bounds; around each
// one it must pick the quadrant the double compares pick.
TEST(GraphGenTest, RmatBitsMatchTheDoubleCompares)
{
    const double ab = kRmatA + kRmatB;
    const std::pair<double, std::uint64_t> bounds[] = {
        {kRmatA, 5134103575202365ULL},
        {ab, 6845471433603154ULL},
        {ab + kRmatC, 8556839292003942ULL},
    };
    for (const auto &[t, expected] : bounds) {
        const std::uint64_t kt = uniformBound(t);
        EXPECT_EQ(kt, expected) << t;
        for (std::uint64_t k = kt - 2; k <= kt + 1; ++k) {
            const RmatBits b = rmatBits(k);
            EXPECT_EQ(std::make_pair(b.u, b.v),
                      bitsOf(std::ldexp(static_cast<double>(k), -53)))
                << "k = " << k;
        }
    }
}

TEST(GraphGenTest, CsrEdgeCountsMatch)
{
    Rng rng(3);
    EdgeList e = rmatEdges(8, 4, rng);
    std::uint64_t non_self = 0;
    for (const auto &[u, v] : e)
        non_self += (u != v) ? 1 : 0;

    Csr g = buildCsr(1 << 8, e, /*symmetrise=*/false);
    EXPECT_EQ(g.rowStart.back(), non_self);
    EXPECT_EQ(g.dest.size(), non_self);

    Csr gs = buildCsr(1 << 8, e, /*symmetrise=*/true);
    EXPECT_EQ(gs.dest.size(), 2 * non_self);
}

TEST(GraphGenTest, CsrRowsMonotone)
{
    Rng rng(5);
    EdgeList e = rmatEdges(9, 4, rng);
    Csr g = buildCsr(1 << 9, e, true);
    for (std::size_t i = 0; i + 1 < g.rowStart.size(); ++i)
        EXPECT_LE(g.rowStart[i], g.rowStart[i + 1]);
    for (std::uint64_t d : g.dest)
        EXPECT_LT(d, 1u << 9);
}

TEST(GraphGenTest, PowerLawHasHubs)
{
    Rng rng(11);
    EdgeList e = powerLawEdges(1000, 20000, rng);
    std::vector<unsigned> indeg(1000, 0);
    for (const auto &[u, v] : e) {
        EXPECT_LT(u, 1000u);
        EXPECT_LT(v, 1000u);
        ++indeg[v];
    }
    unsigned max_deg = 0;
    for (unsigned d : indeg)
        max_deg = std::max(max_deg, d);
    // Strong skew: the hottest page receives far more than the mean (20).
    EXPECT_GT(max_deg, 200u);
}

TEST(RegistryTest, AllEightWorkloadsConstruct)
{
    auto names = workloadNames();
    ASSERT_EQ(names.size(), 8u);
    for (const auto &n : names) {
        auto wl = makeWorkload(n);
        ASSERT_NE(wl, nullptr) << n;
        EXPECT_EQ(wl->name(), n);
    }
    EXPECT_EQ(makeWorkload("NotABenchmark"), nullptr);
}

TEST(RandAccTest, MatchesReference)
{
    WorkloadScale sc;
    sc.factor = 0.01;
    RandAccWorkload wl(sc);
    GuestMemory gm;
    wl.setup(gm, 99);
    auto tr = wl.trace(false);
    while (tr.next()) {
    }
    // The functional reference with identical parameters.
    std::uint64_t updates = (static_cast<std::uint64_t>(
                                 (1 << 20) * 0.01) / 128) * 128;
    EXPECT_EQ(wl.checksum(),
              RandAccWorkload::reference(1ull << 22, updates, 99));
}

TEST(IntSortTest, MatchesReference)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    IntSortWorkload wl(sc);
    GuestMemory gm;
    wl.setup(gm, 7);
    auto tr = wl.trace(false);
    while (tr.next()) {
    }
    std::uint64_t keys =
        static_cast<std::uint64_t>((1ull << 21) * 0.02);
    EXPECT_EQ(wl.checksum(),
              IntSortWorkload::reference(keys, 1ull << 19, 2, 7));
}

/** Every workload's trace must only touch registered guest memory. */
class TraceValidityParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceValidityParam, AllAccessesMapped)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    auto wl = makeWorkload(GetParam(), sc);
    GuestMemory gm;
    wl->setup(gm, 42);

    auto tr = wl->trace(false);
    std::uint64_t ops = 0;
    std::set<ValueId> produced;
    while (tr.next()) {
        const MicroOp &op = tr.value();
        ++ops;
        switch (op.kind) {
          case MicroOp::Kind::Load:
          case MicroOp::Kind::Store:
            EXPECT_TRUE(gm.contains(op.vaddr))
                << GetParam() << " op " << ops << " addr " << std::hex
                << op.vaddr;
            break;
          default:
            break;
        }
        // Dependences must reference values produced earlier.
        if (op.produces != 0)
            produced.insert(op.produces);
        for (ValueId d : op.deps) {
            if (d != 0) {
                EXPECT_TRUE(produced.count(d)) << GetParam();
            }
        }
        if (ops > 2'000'000)
            break; // plenty for validity checking
    }
    EXPECT_GT(ops, 1000u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TraceValidityParam,
                         ::testing::Values("G500-CSR", "G500-List", "HJ-2",
                                           "HJ-8", "PageRank", "RandAcc",
                                           "IntSort", "ConjGrad"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

/** The software-prefetch variant must add instructions, never change
 *  functional results. */
class SwpfVariantParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SwpfVariantParam, SwpfVariantConsistent)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    auto wl = makeWorkload(GetParam(), sc);
    if (!wl->supportsSoftware())
        GTEST_SKIP() << "no software prefetch for " << GetParam();

    GuestMemory gm;
    wl->setup(gm, 42);
    std::uint64_t plain_ops = 0, swpf_ops = 0, swpf_count = 0;
    {
        auto tr = wl->trace(false);
        while (tr.next())
            ++plain_ops;
    }
    auto wl2 = makeWorkload(GetParam(), sc);
    GuestMemory gm2;
    wl2->setup(gm2, 42);
    {
        auto tr = wl2->trace(true);
        while (tr.next()) {
            ++swpf_ops;
            if (tr.value().kind == MicroOp::Kind::SwPrefetch)
                ++swpf_count;
        }
    }
    EXPECT_GT(swpf_count, 0u);
    EXPECT_GT(swpf_ops, plain_ops);
    EXPECT_EQ(wl->checksum(), wl2->checksum());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SwpfVariantParam,
                         ::testing::Values("G500-CSR", "G500-List", "HJ-2",
                                           "HJ-8", "RandAcc", "IntSort",
                                           "ConjGrad"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

/** Manual programming must fit the PPU instruction cache and configure
 *  at least one load-triggered filter. */
class ManualProgramParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ManualProgramParam, ManualKernelsWellFormed)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    auto wl = makeWorkload(GetParam(), sc);
    GuestMemory gm;
    wl->setup(gm, 42);

    EventQueue eq;
    PpfConfig cfg;
    ProgrammablePrefetcher ppf(eq, gm, cfg);
    wl->programManual(ppf);

    EXPECT_GT(ppf.kernels().size(), 0u);
    EXPECT_LE(ppf.kernels().totalBytes(), 4096u);
    bool has_load_trigger = false;
    for (std::size_t i = 0; i < ppf.filters().size(); ++i)
        has_load_trigger |= ppf.filters()[static_cast<int>(i)].onLoad !=
                            kNoKernel;
    EXPECT_TRUE(has_load_trigger);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ManualProgramParam,
                         ::testing::Values("G500-CSR", "G500-List", "HJ-2",
                                           "HJ-8", "PageRank", "RandAcc",
                                           "IntSort", "ConjGrad"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

/** Compiler-pass expectations per benchmark, as reported in the paper. */
TEST(PaperBehaviourTest, ConversionAvailabilityMatchesPaper)
{
    WorkloadScale sc;
    sc.factor = 0.02;

    struct Expect
    {
        const char *name;
        bool converted_ok;
        bool pragma_ok;
    };
    const Expect table[] = {
        {"G500-CSR", true, true}, {"G500-List", true, true},
        {"HJ-2", true, true},     {"HJ-8", true, true},
        {"PageRank", false, true}, // swpf impossible, pragma fine
        {"RandAcc", true, true},  {"IntSort", true, true},
        {"ConjGrad", true, true},
    };

    for (const auto &ex : table) {
        auto wl = makeWorkload(ex.name, sc);
        GuestMemory gm;
        wl->setup(gm, 42);
        auto loops = wl->buildIR();
        ASSERT_FALSE(loops.empty()) << ex.name;

        bool conv = false, prag = false;
        for (const auto &loop : loops) {
            conv |= convertSoftwarePrefetches(*loop).ok;
            prag |= generateFromPragma(*loop).ok;
        }
        EXPECT_EQ(conv, ex.converted_ok) << ex.name;
        EXPECT_EQ(prag, ex.pragma_ok) << ex.name;
    }
}

} // namespace
} // namespace epf

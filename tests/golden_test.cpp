/**
 * @file
 * Golden-stats differential regression suite (tier 2).
 *
 * Each workload x technique cell runs at the default seed and
 * kGoldenScale, serializes its full stats block (minus hostSeconds) and
 * diffs it against the checked-in file under tests/goldens/.  A
 * mismatch means simulated timing or accounting changed: if that was
 * intentional, regenerate with ./build/update_goldens and commit the
 * golden diff alongside the code; if not, this suite just caught a
 * regression no directional test would see.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "runner/golden.hpp"
#include "workloads/workload.hpp"

#ifndef EPF_GOLDEN_DIR
#define EPF_GOLDEN_DIR "tests/goldens"
#endif

namespace epf
{
namespace
{

std::string
goldenDir()
{
    if (const char *d = std::getenv("EPF_GOLDEN_DIR"))
        return d;
    return EPF_GOLDEN_DIR;
}

class GoldenMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Technique>>
{
};

TEST_P(GoldenMatrix, StatsMatchGolden)
{
    const GoldenCell cell{std::get<0>(GetParam()), std::get<1>(GetParam())};
    const std::string file = goldenDir() + "/" + goldenFileName(cell);

    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << file
                    << " — run ./build/update_goldens and commit the "
                       "generated files";
    std::ostringstream want;
    want << is.rdbuf();

    const RunResult res = runExperiment(cell.workload,
                                        goldenConfig(cell.technique));
    const std::string got = goldenStatsJson(cell, res);

    EXPECT_EQ(want.str(), got)
        << cell.workload << " / " << techniqueName(cell.technique)
        << ": stats diverged from " << file << " at line "
        << firstDifferingLine(want.str(), got)
        << ".\nIf this change is intentional, regenerate with "
           "./build/update_goldens and commit the golden diff.";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, GoldenMatrix,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(goldenTechniques())),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) + "_" +
                        techniqueName(std::get<1>(info.param));
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

/**
 * A/B proof for same-tick event batching: every cell of the full
 * matrix re-run with batched delivery OFF everywhere — per-event MSHR
 * fill waiters, per-bank arbiter grant events, per-match observation
 * enqueues — must reproduce the checked-in goldens (which were recorded
 * with batching ON, the default) byte-for-byte.  This is the claim that
 * batching is timing-pure: it changes how same-tick events are carried,
 * never what they do or in which order.
 */
class BatchParity
    : public ::testing::TestWithParam<std::tuple<std::string, Technique>>
{
};

TEST_P(BatchParity, PerEventDeliveryMatchesGolden)
{
    const GoldenCell cell{std::get<0>(GetParam()), std::get<1>(GetParam())};
    const std::string file = goldenDir() + "/" + goldenFileName(cell);

    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << file;
    std::ostringstream want;
    want << is.rdbuf();

    RunConfig cfg = goldenConfig(cell.technique);
    cfg.mem.batchedDelivery = false; // seeds both cache levels + arbiter
    cfg.ppf.batchedObservations = false;
    const RunResult res = runExperiment(cell.workload, cfg);
    const std::string got = goldenStatsJson(cell, res);

    EXPECT_EQ(want.str(), got)
        << cell.workload << " / " << techniqueName(cell.technique)
        << ": batched vs per-event delivery produced different simulated "
           "stats (first divergence at line "
        << firstDifferingLine(want.str(), got) << ").";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, BatchParity,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(goldenTechniques())),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) + "_" +
                        techniqueName(std::get<1>(info.param));
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

} // namespace
} // namespace epf

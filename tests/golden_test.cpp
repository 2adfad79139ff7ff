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

using CellParam = std::tuple<std::string, Technique>;

/** gtest name of a cell: workload and technique, alphanumerics only. */
std::string
cellName(const ::testing::TestParamInfo<CellParam> &info)
{
    const std::string n = std::get<0>(info.param) + "_" +
                          techniqueName(std::get<1>(info.param));
    std::string out;
    for (char c : n)
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
    return out;
}

class GoldenMatrix : public ::testing::TestWithParam<CellParam>
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
    cellName);

/**
 * Same-tick fan-out (an MSHR fill waking its merged demands, a snoop
 * matching several filter entries) is delivered one event at a time; the
 * goldens were recorded when that fan-out still travelled in batches, and
 * the suite keeps the name of the batched-vs-per-event comparison it used
 * to run.  GoldenMatrix runs each cell once in a fresh process.  This
 * suite runs every cell twice back to back on one thread, as a sweep
 * worker does, so whatever the first run leaves behind in the process
 * (pooled callback blocks, lazily built statics) must not reach the
 * second.  Both runs must reproduce the golden byte for byte.
 */
class BatchParity : public ::testing::TestWithParam<CellParam>
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

    const RunConfig cfg = goldenConfig(cell.technique);
    for (const char *run : {"first", "second"}) {
        const std::string got =
            goldenStatsJson(cell, runExperiment(cell.workload, cfg));
        EXPECT_EQ(want.str(), got)
            << cell.workload << " / " << techniqueName(cell.technique)
            << ": the " << run
            << " run in this process diverged from the golden at line "
            << firstDifferingLine(want.str(), got) << ".";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, BatchParity,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(goldenTechniques())),
    cellName);

} // namespace
} // namespace epf

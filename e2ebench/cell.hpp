/**
 * @file
 * One sweep cell re-assembled from the simulator's public classes, with
 * host-time spans recorded around each layer from the outside.
 *
 * runExperiment() is a black box to a profiler: it sets up the machine,
 * runs it and publishes the stats in one call.  CellProbe rebuilds the
 * same cell step by step (workload set-up, compiler passes, machine
 * construction, prefetcher attachment, EventQueue::run, stats
 * collection, teardown) and brackets every step.  Inside the run it
 * wraps the workload's micro-op generator and the L1 listener/prefetch
 * source, so trace generation and prefetcher calls are timed without a
 * single change to the program.  The benchmark checks every probed
 * cell's goldenStatsJson() against runExperiment()'s, so the
 * re-assembled machine cannot drift from the real one unnoticed.
 */

#ifndef EPF_E2EBENCH_CELL_HPP
#define EPF_E2EBENCH_CELL_HPP

#include <cstdint>
#include <string>

#include "runner/experiment.hpp"

namespace epf::bench
{

/** Host-time spans (seconds) and work counts of one probed cell. */
struct CellSpans
{
    // Set-up brackets, in the order they run.
    double workloadSetup = 0;   ///< makeWorkload + Workload::setup + buildIR
    double machineBuild = 0;    ///< Uncore, core ports and cores
    double compilerPass = 0;    ///< pragma / conversion passes
    double prefetchBuild = 0;   ///< Stride / GHB construction
    double ppfProgram = 0;      ///< PPF construction + kernel install
    double coreStart = 0;       ///< Core::run (first fetch scheduled)
    // Run and after.
    double run = 0;             ///< EventQueue::run until drained
    double collect = 0;         ///< stats publication
    double teardown = 0;        ///< destruction of machine + workload
    // Nested inside `run` (children of the run span).
    double trace = 0;           ///< micro-op generator resumes
    double listener = 0;        ///< Stride/GHB listener + source calls
    double frontdoor = 0;       ///< PPF listener + source calls

    std::uint64_t microops = 0;
    std::uint64_t events = 0;
    std::uint64_t loopsConverted = 0;
    std::uint64_t loopsFailed = 0;
    std::uint64_t pfEnqueued = 0;
    std::uint64_t pfDroppedFull = 0;

    /** Every set-up bracket: the work done before the first tick. */
    double
    setup() const
    {
        return workloadSetup + machineBuild + compilerPass + prefetchBuild +
               ppfProgram + coreStart;
    }

    /** Every top-level bracket (children of `run` excluded). */
    double bracketed() const { return setup() + run + collect + teardown; }

    CellSpans &
    operator+=(const CellSpans &o)
    {
        workloadSetup += o.workloadSetup;
        machineBuild += o.machineBuild;
        compilerPass += o.compilerPass;
        prefetchBuild += o.prefetchBuild;
        ppfProgram += o.ppfProgram;
        coreStart += o.coreStart;
        run += o.run;
        collect += o.collect;
        teardown += o.teardown;
        trace += o.trace;
        listener += o.listener;
        frontdoor += o.frontdoor;
        microops += o.microops;
        events += o.events;
        loopsConverted += o.loopsConverted;
        loopsFailed += o.loopsFailed;
        pfEnqueued += o.pfEnqueued;
        pfDroppedFull += o.pfDroppedFull;
        return *this;
    }
};

/**
 * Run one cell with every layer bracketed.  Returns the same RunResult
 * runExperiment(@p workload, @p cfg) returns and fills @p spans.
 */
RunResult probeCell(const std::string &workload, const RunConfig &cfg,
                    CellSpans &spans);

/**
 * Perform only the set-up calls of one cell (everything before its first
 * simulated tick), then tear it down.  Returns the set-up seconds.
 */
double setupOnly(const std::string &workload, const RunConfig &cfg);

} // namespace epf::bench

#endif // EPF_E2EBENCH_CELL_HPP

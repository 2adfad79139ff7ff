/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses.
 *
 * Every binary queues its whole run grid into a SweepEngine, executes it
 * in parallel across host threads, then formats the same rows/series as
 * the corresponding figure or table of the paper.  Absolute numbers
 * differ from the paper (different substrate, scaled inputs); the
 * *shape* is the reproduction target — see README.md, "Reproducing the
 * paper's figures".
 *
 * Environment knobs shared by all harnesses:
 *   EPF_SCALE    input scale factor (default 0.25; fig9b defaults 0.1)
 *   EPF_THREADS  sweep worker threads (default: all cores)
 *   EPF_CORES    simulated cores per run (default 1; fig13_multicore
 *                sweeps its own 1/2/4/8 grid and ignores this)
 *   EPF_SEED     base seed each cell's seed is derived from
 *   EPF_JSON     when set, also dump every run as JSON to this path
 *                ("-" for stdout)
 *   EPF_PROGRESS when set, print per-run progress lines to stderr
 *   EPF_TRACE_OUT when set, capture every cell's micro-op stream to this
 *                trace-file path; {workload}/{technique}/{label} expand
 *                per cell (the emitted JSON records each file under
 *                "trace")
 *   EPF_FAULTS   fault-injection schedule applied to every cell: a
 *                canonical schedule index or a site spec list (see
 *                parseFaultConfig() in sim/fault.hpp).  Architectural
 *                results are unaffected by construction; timing moves.
 *   EPF_CELL_TIMEOUT  per-cell wall-clock watchdog in seconds; a hung
 *                cell fails the whole run with its workload/technique/
 *                seed named instead of wedging the pool
 */

#ifndef EPF_BENCH_BENCH_COMMON_HPP
#define EPF_BENCH_BENCH_COMMON_HPP

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/tables.hpp"

namespace epf::bench
{

inline double
scaleFromEnv(double fallback = 0.25)
{
    if (const char *s = std::getenv("EPF_SCALE"))
        return std::atof(s);
    return fallback;
}

inline RunConfig
baseConfig(Technique t, double scale)
{
    RunConfig cfg;
    cfg.technique = t;
    cfg.scale.factor = scale;
    cfg.cores = sweepCoresFromEnv(1);
    cfg.faults = sweepFaultsFromEnv();
    if (const char *p = std::getenv("EPF_TRACE_OUT"))
        cfg.tracePath = p;
    return cfg;
}

/** A SweepEngine configured from the environment. */
inline SweepEngine
makeEngine()
{
    SweepEngine::Options opts;
    opts.threads = sweepThreadsFromEnv(0);
    opts.cellTimeoutSeconds = sweepCellTimeoutFromEnv(0.0);
    if (const char *s = std::getenv("EPF_SEED"))
        opts.baseSeed = std::strtoull(s, nullptr, 0);
    if (std::getenv("EPF_PROGRESS")) {
        opts.progress = [](std::size_t done, std::size_t total,
                           const SweepOutcome &o) {
            const std::string tech =
                techniqueName(o.cell.config.technique);
            std::cerr << "[" << done << "/" << total << "] "
                      << o.cell.workload << " / " << tech
                      << (o.cell.label.empty() || o.cell.label == tech
                              ? ""
                              : " " + o.cell.label)
                      << (o.failed ? " FAILED: " + o.error : "") << "\n";
        };
    }
    return SweepEngine(opts);
}

/**
 * Exit with a diagnostic if any sweep cell failed: a default-constructed
 * RunResult (cycles 0) must never flow silently into a figure.
 */
inline void
requireAllOk(const std::vector<SweepOutcome> &outcomes)
{
    bool ok = true;
    for (const auto &o : outcomes) {
        if (o.failed) {
            std::cerr << "run failed: " << o.cell.workload << " / "
                      << techniqueName(o.cell.config.technique)
                      << (o.cell.label.empty() ? "" : " " + o.cell.label)
                      << ": " << o.error << "\n";
            ok = false;
        }
    }
    if (!ok)
        std::exit(1);
}

/** Honour EPF_JSON: dump the raw sweep next to the formatted table. */
inline void
maybeWriteJson(const std::vector<SweepOutcome> &outcomes)
{
    const char *path = std::getenv("EPF_JSON");
    if (!path)
        return;
    if (std::string(path) == "-") {
        SweepEngine::writeJson(std::cout, outcomes, true);
        return;
    }
    std::ofstream os(path);
    if (!os) {
        std::cerr << "EPF_JSON: cannot open " << path << "\n";
        return;
    }
    SweepEngine::writeJson(os, outcomes, true);
    std::cerr << "sweep JSON written to " << path << "\n";
}

/** Speedup of @p r over @p base_cycles ("n/a"/"BADSUM" handled by caller). */
inline double
speedupOver(std::uint64_t base_cycles, const RunResult &r)
{
    return static_cast<double>(base_cycles) / static_cast<double>(r.cycles);
}

} // namespace epf::bench

#endif // EPF_BENCH_BENCH_COMMON_HPP

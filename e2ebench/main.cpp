/**
 * @file
 * The repository benchmark harness.
 *
 *   epfbench --workload ppf|baselines|multicore --seed N --seconds S
 *            --trace 0|1 [--scale X] [--threads T]
 *   epfbench --spec
 *
 * Each workload is a sweep grid run by a SweepEngine with T worker
 * threads (a closed loop: a worker takes the next cell only when its
 * current cell finishes).  Within S seconds the harness samples the
 * grid's set-up cost, then runs whole grid passes back to back and
 * reports medians over passes.
 *
 *  --trace 0  end-to-end metrics: cells run through the real user path,
 *             SweepEngine -> runExperiment, with no instrumentation.
 *  --trace 1  per-layer metrics: untraced passes alternate with passes
 *             whose cells are re-assembled by probeCell() and plugged in
 *             through SweepEngine::Options::runCell.  Every probed cell
 *             must reproduce the first untraced pass's goldenStatsJson()
 *             byte for byte, or the run aborts naming the cell.
 *
 * Every cell of a workload is seeded as its kNone cell, so all cells of
 * one paper workload see identical inputs and must agree on the
 * checksum; a cell that throws or disagrees counts as failed.  The last
 * stdout line is one JSON object: correct, attempted, failed, metrics.
 * --spec prints the metric table (name, unit, better direction, layer,
 * the end-to-end metric it should move and where) as JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "cell.hpp"
#include "runner/golden.hpp"
#include "runner/sweep.hpp"

namespace epf::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric table.
// ---------------------------------------------------------------------------

struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *better;
    const char *moves; ///< end-to-end metric(s) a per-layer metric should move
    const char *on;    ///< workloads where it does its work
};

// The paper's headline result (Fig. 7): Manual events, geomean speedup.
constexpr double kPaperManualSpeedup = 3.0;

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s", "lower", "", "all"},
    {"sim_mips", "Minstr/s", "higher", "", "all"},
    {"setup_s", "s", "lower", "", "all"},
    {"peak_rss_mib", "MiB", "lower", "", "all"},
    {"cells_ok_ratio", "ratio", "higher", "", "all"},
    {"speedup_geomean", "x", "higher", "", "all"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"runner.cell_s_sum", "s", "lower", "wall_s", "all"},
    {"runner.slowest_cell_s", "s", "lower", "wall_s", "all"},
    {"runner.parallel_eff", "ratio", "higher", "wall_s", "all"},
    {"workloads.setup_s", "s", "lower", "setup_s",
     "all; G500-* set-up is the largest"},
    {"workloads.trace_s", "s", "lower", "sim_mips", "all"},
    {"workloads.microops", "count", "lower", "sim_mips", "all"},
    {"workloads.ns_per_op", "ns/op", "lower", "sim_mips", "all"},
    {"compiler.pass_s", "s", "lower", "setup_s", "ppf; not baselines"},
    {"compiler.loops_converted", "count", "higher", "speedup_geomean",
     "ppf; not baselines"},
    {"compiler.loops_failed", "count", "lower", "speedup_geomean",
     "ppf; not baselines"},
    {"prefetch.construct_s", "s", "lower", "setup_s peak_rss_mib",
     "baselines; not ppf"},
    {"prefetch.listener_s", "s", "lower", "sim_mips",
     "baselines multicore; not ppf"},
    {"prefetch.enqueued", "count", "lower", "sim_mips",
     "baselines multicore; not ppf"},
    {"prefetch.dropped_full", "count", "lower", "sim_mips",
     "baselines multicore; not ppf"},
    {"prefetch.useful_ratio", "ratio", "higher", "speedup_geomean",
     "baselines multicore; not ppf"},
    {"ppf.program_s", "s", "lower", "setup_s", "ppf multicore; not baselines"},
    {"ppf.frontdoor_s", "s", "lower", "sim_mips",
     "ppf multicore; not baselines"},
    {"ppf.observations", "count", "lower", "sim_mips",
     "ppf multicore; not baselines"},
    {"ppf.obs_dropped_ratio", "ratio", "lower", "speedup_geomean",
     "ppf multicore; not baselines"},
    {"ppf.prefetches_emitted", "count", "lower", "sim_mips",
     "ppf multicore; not baselines"},
    {"ppf.req_dropped_ratio", "ratio", "lower", "speedup_geomean",
     "ppf multicore; not baselines"},
    {"ppf.useful_ratio", "ratio", "higher", "speedup_geomean",
     "ppf multicore; not baselines"},
    {"ppf.unused_evicted", "count", "lower", "speedup_geomean",
     "ppf multicore; not baselines"},
    {"ppf.ppu_busy_frac", "ratio", "lower", "speedup_geomean",
     "ppf multicore; not baselines"},
    {"isa.kernel_runs", "count", "lower", "sim_mips", "ppf; not baselines"},
    {"isa.traps", "count", "lower", "sim_mips", "ppf; not baselines"},
    {"sim.events", "count", "lower", "sim_mips", "all"},
    {"sim.run_s", "s", "lower", "sim_mips", "all"},
    {"sim.ns_per_event", "ns/event", "lower", "sim_mips", "all"},
    {"sim.engine_self_s", "s", "lower", "sim_mips", "all"},
    {"cpu.ipc", "instr/cycle", "higher", "speedup_geomean", "all"},
    {"cpu.rob_full_cycles", "cycles", "lower", "speedup_geomean", "all"},
    {"cpu.commit_stall_cycles", "cycles", "lower", "speedup_geomean", "all"},
    {"mem.construct_s", "s", "lower", "setup_s peak_rss_mib",
     "all; grows with cores"},
    {"mem.l1_hit_rate", "ratio", "higher", "speedup_geomean", "all"},
    {"mem.l1_mshr_rejects", "count", "lower", "speedup_geomean", "all"},
    {"mem.load_retries", "count", "lower", "speedup_geomean sim_mips", "all"},
    {"mem.pf_issued", "count", "higher", "speedup_geomean", "all"},
    {"mem.pf_drop_ratio", "ratio", "lower", "speedup_geomean sim_mips",
     "all"},
    {"mem.l2_hit_rate", "ratio", "higher", "speedup_geomean", "all"},
    {"mem.dram_reads", "count", "lower", "speedup_geomean", "all"},
    {"mem.dram_avg_read_ns", "ns", "lower", "speedup_geomean", "all"},
    {"mem.tlb_walks", "count", "lower", "speedup_geomean", "all"},
    {"mem.arb_conflicts", "count", "lower", "speedup_geomean",
     "multicore only"},
    {"mem.invalidations", "count", "lower", "speedup_geomean",
     "multicore only"},
    {"mem.downgrades", "count", "lower", "speedup_geomean", "multicore only"},
    {"runner.collect_s", "s", "lower", "wall_s", "all"},
    {"runner.teardown_s", "s", "lower", "wall_s", "all"},
    {"bench.trace_overhead", "ratio", "lower", "", "all"},
    {"bench.layer_coverage", "ratio", "higher", "", "all"},
};

// ---------------------------------------------------------------------------
// Workload grids.
// ---------------------------------------------------------------------------

struct GridCell
{
    std::string workload;
    Technique technique;
    unsigned cores;

    std::string
    label() const
    {
        return techniqueName(technique) + "/" + std::to_string(cores) + "c";
    }
};

std::vector<GridCell>
gridOf(const std::string &name)
{
    std::vector<std::string> workloads;
    std::vector<Technique> techs;
    std::vector<unsigned> cores = {1};
    if (name == "ppf") {
        workloads = workloadNames();
        techs = {Technique::kNone, Technique::kPragma, Technique::kConverted,
                 Technique::kManual};
    } else if (name == "baselines") {
        workloads = workloadNames();
        techs = {Technique::kNone, Technique::kStride, Technique::kGhbRegular,
                 Technique::kGhbLarge, Technique::kSoftware};
    } else if (name == "multicore") {
        workloads = {"RandAcc", "HJ-2", "HJ-8"};
        techs = {Technique::kNone, Technique::kStride, Technique::kManual};
        cores = {4, 8};
    }
    // Technique-major order: a grid's heavy cells (GHB(large)'s 64 MiB
    // history) run side by side on both workers in every pass, so the
    // peak memory does not depend on how the passes happen to interleave.
    std::vector<GridCell> cells;
    for (unsigned c : cores)
        for (Technique t : techs)
            for (const auto &wl : workloads)
                cells.push_back({wl, t, c});
    return cells;
}

/**
 * Input scale of a grid.  Below 0.15 the G500-* graphs and IntSort's key
 * array stop shrinking, so ppf and baselines run at the golden scale to
 * fit several whole-grid passes in one run; multicore's workloads shrink
 * linearly and run at 0.1 (the figures use 0.25).
 */
double
defaultScale(const std::string &name)
{
    return name == "multicore" ? 0.1 : kGoldenScale;
}

/** Cells the paper reports as n/a: no software prefetch for PageRank. */
bool
expectedSkip(const GridCell &c)
{
    return c.workload == "PageRank" && (c.technique == Technique::kSoftware ||
                                        c.technique == Technique::kConverted);
}

struct Settings
{
    std::string workload;
    std::uint64_t seed = 0xE7F5EED5;
    double seconds = 10;
    bool trace = false;
    double scale = 0; ///< 0: the grid's defaultScale()
    unsigned threads = 2;
};

RunConfig
configOf(const GridCell &c, const Settings &s)
{
    RunConfig cfg;
    cfg.technique = c.technique;
    cfg.cores = c.cores;
    cfg.scale.factor = s.scale;
    return cfg;
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

std::string
keyOf(const std::string &workload, const std::string &label)
{
    return workload + "|" + label;
}

struct Pass
{
    std::vector<SweepOutcome> outcomes;
    double wall = 0;
    std::map<std::string, CellSpans> spans; ///< traced passes only
};

Pass
runPass(const std::vector<GridCell> &grid, const Settings &s, bool traced)
{
    Pass pass;
    std::mutex mtx;
    SweepEngine::Options opts;
    opts.threads = s.threads;
    opts.baseSeed = s.seed;
    if (traced) {
        opts.runCell = [&pass, &mtx](const SweepCell &c) {
            CellSpans spans;
            RunResult r = probeCell(c.workload, c.config, spans);
            std::lock_guard<std::mutex> lock(mtx);
            pass.spans[keyOf(c.workload, c.label)] = spans;
            return r;
        };
    }
    SweepEngine engine(opts);
    for (const auto &c : grid)
        engine.add(c.workload, configOf(c, s), c.label(), Technique::kNone);
    const auto t0 = Clock::now();
    pass.outcomes = engine.run();
    pass.wall = secondsSince(t0);
    return pass;
}

/** Correctness of one pass's cells. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t skipped = 0;
};

Check
checkPass(const std::vector<GridCell> &grid, const Pass &pass, bool verbose)
{
    Check chk;
    // Reference checksum: the workload's None cell at its lowest core
    // count (the grid lists it first).
    std::map<std::string, std::uint64_t> reference;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const SweepOutcome &o = pass.outcomes[i];
        if (grid[i].technique == Technique::kNone && !o.failed &&
            o.result.available && !reference.count(grid[i].workload))
            reference[grid[i].workload] = o.result.checksum;
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GridCell &c = grid[i];
        const SweepOutcome &o = pass.outcomes[i];
        std::string why;
        if (o.failed) {
            why = "threw: " + o.error;
        } else if (!o.result.available) {
            if (expectedSkip(c)) {
                ++chk.skipped;
                continue;
            }
            why = "unexpectedly unavailable: " + o.result.note;
        } else if (!reference.count(c.workload)) {
            why = "no None reference checksum";
        } else if (o.result.checksum != reference[c.workload]) {
            why = "checksum " + std::to_string(o.result.checksum) +
                  " != None's " + std::to_string(reference[c.workload]);
        }
        ++chk.attempted;
        if (!why.empty()) {
            ++chk.failed;
            if (verbose) {
                std::printf("FAILED %s x %s: %s\n", c.workload.c_str(),
                            c.label().c_str(), why.c_str());
            }
        }
    }
    return chk;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
cellSeconds(const Pass &p)
{
    double sum = 0;
    for (const auto &o : p.outcomes)
        sum += o.hostSeconds;
    return sum;
}

/**
 * Geomean of None cycles / technique cycles over the grid's non-None
 * cells (equal workload and core count).  @p only restricts it to one
 * technique.  Returns 0 when no cell qualifies.
 */
double
speedupGeomean(const std::vector<GridCell> &grid, const Pass &p,
               const Technique *only = nullptr)
{
    std::map<std::string, std::uint64_t> none;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &o = p.outcomes[i];
        if (grid[i].technique == Technique::kNone && !o.failed &&
            o.result.available)
            none[grid[i].workload + "/" + std::to_string(grid[i].cores)] =
                o.result.cycles;
    }
    double logsum = 0;
    int n = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &c = grid[i];
        const auto &o = p.outcomes[i];
        if (c.technique == Technique::kNone || (only && c.technique != *only))
            continue;
        const auto it = none.find(c.workload + "/" + std::to_string(c.cores));
        if (o.failed || !o.result.available || o.result.cycles == 0 ||
            it == none.end())
            continue;
        logsum += std::log(static_cast<double>(it->second) /
                           static_cast<double>(o.result.cycles));
        ++n;
    }
    return n > 0 ? std::exp(logsum / n) : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced pass.
// ---------------------------------------------------------------------------

using Values = std::map<std::string, double>;

Values
layerValues(const std::vector<GridCell> &grid, const Pass &p,
            const Settings &s)
{
    CellSpans t; // sums over cells
    double cellSum = 0, slowest = 0;
    double instrs = 0, cycles = 0, robFull = 0, commitStall = 0;
    double l1Loads = 0, l1Hits = 0, mshrRejects = 0, loadRetries = 0;
    double pfIssued = 0, pfDrops = 0, l2Reads = 0, l2Hits = 0;
    double dramReads = 0, dramLatNs = 0, tlbWalks = 0;
    double arbConflicts = 0, invalidations = 0, downgrades = 0;
    double pfFills = 0, pfUsed = 0, ppfFills = 0, ppfUsed = 0;
    double ppfUnusedEvicted = 0, obs = 0, obsDropped = 0, emitted = 0;
    double reqDropped = 0, kernelRuns = 0, traps = 0;
    double busySum = 0, busyCount = 0;

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GridCell &c = grid[i];
        const SweepOutcome &o = p.outcomes[i];
        cellSum += o.hostSeconds;
        slowest = std::max(slowest, o.hostSeconds);
        const auto it = p.spans.find(keyOf(c.workload, c.label()));
        if (it != p.spans.end())
            t += it->second;
        if (o.failed || !o.result.available)
            continue;

        const RunResult &r = o.result;
        instrs += static_cast<double>(r.instrs);
        cycles += static_cast<double>(r.cycles);
        // Sum a counter over every core's copy ("x" or "coreN.x").
        const auto sum = [&r](const std::string &suffix) {
            double v = 0;
            for (const auto &[k, val] : r.detail.all()) {
                if (k == suffix ||
                    (k.size() > suffix.size() &&
                     k.compare(k.size() - suffix.size(), suffix.size(),
                               suffix) == 0 &&
                     k[k.size() - suffix.size() - 1] == '.' &&
                     k.rfind("core", 0) == 0))
                    v += val;
            }
            return v;
        };
        const auto get = [&r](const std::string &k) {
            return r.detail.get(k);
        };
        robFull += sum("robFullCycles");
        commitStall += sum("commitStallCycles");
        l1Loads += sum("l1.loads");
        l1Hits += sum("l1.loadHits");
        mshrRejects += sum("l1.mshrRejects");
        loadRetries += sum("mem.loadRetries");
        pfIssued += sum("mem.pfIssued");
        pfDrops += sum("mem.pfDropPresent") + sum("mem.pfDropMerged") +
                   sum("mem.pfDropFault") + sum("mem.pfSkidDropped");
        l2Reads += get("l2.reads");
        l2Hits += get("l2.readHits");
        dramReads += get("dram.reads");
        dramLatNs += get("dram.avgReadLatencyNs") * get("dram.reads");
        tlbWalks += sum("tlb.walks");
        arbConflicts += get("uncore.arbConflicts");
        invalidations += get("uncore.invalidations");
        downgrades += get("uncore.downgrades");

        const double fills = sum("l1.prefetchFills");
        const double used = sum("l1.pfUsed");
        if (c.technique == Technique::kStride ||
            c.technique == Technique::kGhbRegular ||
            c.technique == Technique::kGhbLarge) {
            pfFills += fills;
            pfUsed += used;
        }
        if (usesPpf(c.technique)) {
            ppfFills += fills;
            ppfUsed += used;
            ppfUnusedEvicted += sum("l1.pfUnusedEvicted");
            obs += sum("ppf.observations");
            obsDropped += sum("ppf.obsDropped");
            emitted += sum("ppf.prefetchesEmitted");
            reqDropped += sum("ppf.reqDropped");
            kernelRuns += sum("ppf.eventsRun");
            traps += sum("ppf.traps");
            for (double a : r.ppuActivity) {
                busySum += a;
                busyCount += 1;
            }
        }
    }

    const double microops = static_cast<double>(t.microops);
    const double events = static_cast<double>(t.events);
    Values v;
    v["runner.cell_s_sum"] = cellSum;
    v["runner.slowest_cell_s"] = slowest;
    v["runner.parallel_eff"] = ratio(cellSum, p.wall * s.threads);
    v["runner.collect_s"] = t.collect;
    v["runner.teardown_s"] = t.teardown;
    v["workloads.setup_s"] = t.workloadSetup;
    v["workloads.trace_s"] = t.trace;
    v["workloads.microops"] = microops;
    v["workloads.ns_per_op"] = ratio(t.trace * 1e9, microops);
    v["compiler.pass_s"] = t.compilerPass;
    v["compiler.loops_converted"] = static_cast<double>(t.loopsConverted);
    v["compiler.loops_failed"] = static_cast<double>(t.loopsFailed);
    v["prefetch.construct_s"] = t.prefetchBuild;
    v["prefetch.listener_s"] = t.listener;
    v["prefetch.enqueued"] = static_cast<double>(t.pfEnqueued);
    v["prefetch.dropped_full"] = static_cast<double>(t.pfDroppedFull);
    v["prefetch.useful_ratio"] = ratio(pfUsed, pfFills);
    v["ppf.program_s"] = t.ppfProgram;
    v["ppf.frontdoor_s"] = t.frontdoor;
    v["ppf.observations"] = obs;
    v["ppf.obs_dropped_ratio"] = ratio(obsDropped, obs);
    v["ppf.prefetches_emitted"] = emitted;
    v["ppf.req_dropped_ratio"] = ratio(reqDropped, emitted);
    v["ppf.useful_ratio"] = ratio(ppfUsed, ppfFills);
    v["ppf.unused_evicted"] = ppfUnusedEvicted;
    v["ppf.ppu_busy_frac"] = ratio(busySum, busyCount);
    v["isa.kernel_runs"] = kernelRuns;
    v["isa.traps"] = traps;
    v["sim.events"] = events;
    v["sim.run_s"] = t.run;
    v["sim.ns_per_event"] = ratio(t.run * 1e9, events);
    v["sim.engine_self_s"] = t.run - t.trace - t.listener - t.frontdoor;
    v["cpu.ipc"] = ratio(instrs, cycles);
    v["cpu.rob_full_cycles"] = robFull;
    v["cpu.commit_stall_cycles"] = commitStall;
    v["mem.construct_s"] = t.machineBuild;
    v["mem.l1_hit_rate"] = ratio(l1Hits, l1Loads);
    v["mem.l1_mshr_rejects"] = mshrRejects;
    v["mem.load_retries"] = loadRetries;
    v["mem.pf_issued"] = pfIssued;
    v["mem.pf_drop_ratio"] = ratio(pfDrops, pfIssued + pfDrops);
    v["mem.l2_hit_rate"] = ratio(l2Hits, l2Reads);
    v["mem.dram_reads"] = dramReads;
    v["mem.dram_avg_read_ns"] = ratio(dramLatNs, dramReads);
    v["mem.tlb_walks"] = tlbWalks;
    v["mem.arb_conflicts"] = arbConflicts;
    v["mem.invalidations"] = invalidations;
    v["mem.downgrades"] = downgrades;
    v["bench.layer_coverage"] = ratio(t.bracketed(), cellSum);
    return v;
}

/** Where each cell of a traced pass spends its host time, slowest first. */
void
printCells(const std::vector<GridCell> &grid, const Pass &p)
{
    std::vector<std::size_t> order(grid.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&p](std::size_t a, std::size_t b) {
        return p.outcomes[a].hostSeconds > p.outcomes[b].hostSeconds;
    });
    std::printf("traced cells: host s = set-up + run (trace, prefetcher "
                "calls, engine self) + collect + teardown\n");
    for (std::size_t k = 0; k < order.size(); ++k) {
        const GridCell &c = grid[order[k]];
        const auto it = p.spans.find(keyOf(c.workload, c.label()));
        if (it == p.spans.end())
            continue;
        const CellSpans &cs = it->second;
        const double pf = cs.listener + cs.frontdoor;
        std::printf("  %-10s %-16s %7.3f s = %.3f + %.3f (%.3f, %.3f, "
                    "%.3f) + %.3f + %.3f; %" PRIu64 " events, %" PRIu64
                    " micro-ops\n",
                    c.workload.c_str(), c.label().c_str(),
                    p.outcomes[order[k]].hostSeconds, cs.setup(), cs.run,
                    cs.trace, pf, cs.run - cs.trace - pf, cs.collect,
                    cs.teardown, cs.events, cs.microops);
    }
}

/** Every probed cell must reproduce the reference pass's stats. */
void
checkParity(const std::vector<GridCell> &grid, const Pass &reference,
            const Pass &traced)
{
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &a = reference.outcomes[i];
        const auto &b = traced.outcomes[i];
        const GoldenCell gc{grid[i].workload, grid[i].technique};
        const std::string ja =
            a.failed ? "threw: " + a.error : goldenStatsJson(gc, a.result);
        const std::string jb =
            b.failed ? "threw: " + b.error : goldenStatsJson(gc, b.result);
        if (ja != jb) {
            std::fprintf(stderr,
                         "traced cell %s x %s diverges from runExperiment "
                         "at stats line %zu\n",
                         grid[i].workload.c_str(), grid[i].label().c_str(),
                         firstDifferingLine(ja, jb));
            std::exit(3);
        }
    }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printSpec()
{
    const auto list = [](const char *key, const std::vector<MetricSpec> &ms,
                         bool last) {
        std::printf("  \"%s\": [\n", key);
        for (std::size_t i = 0; i < ms.size(); ++i) {
            std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\", \"moves\": \"%s\", "
                        "\"on\": \"%s\"}%s\n",
                        ms[i].name, ms[i].unit, ms[i].better, ms[i].moves,
                        ms[i].on, i + 1 < ms.size() ? "," : "");
        }
        std::printf("  ]%s\n", last ? "" : ",");
    };
    std::printf("{\n");
    list("end_to_end", kEndToEnd, false);
    list("per_layer", kPerLayer, true);
    std::printf("}\n");
}

void
printResult(bool correct, const Check &chk, const std::vector<MetricSpec> &ms,
            const Values &v)
{
    for (const auto &m : ms) {
        std::printf("%-26s %14.6g %s\n", m.name, v.at(m.name), m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", chk.attempted, chk.failed);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name,
                    jsonNumber(v.at(ms[i].name)).c_str(), ms[i].unit);
    }
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "epfbench: %s\nusage: epfbench --workload "
                 "ppf|baselines|multicore --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--threads T]\n       epfbench --spec\n",
                 why);
    std::exit(2);
}

Settings
parseArgs(int argc, char **argv)
{
    Settings s;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--spec") {
            printSpec();
            std::exit(0);
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            s.workload = val;
        } else if (a == "--seed") {
            s.seed = std::strtoull(val, &end, 0);
        } else if (a == "--seconds") {
            s.seconds = std::strtod(val, &end);
        } else if (a == "--trace") {
            s.trace = std::strtol(val, &end, 10) != 0;
        } else if (a == "--scale") {
            s.scale = std::strtod(val, &end);
        } else if (a == "--threads") {
            s.threads = static_cast<unsigned>(std::strtoul(val, &end, 10));
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == val))
            usage(("malformed value for " + a).c_str());
    }
    if (gridOf(s.workload).empty())
        usage("--workload must be ppf, baselines or multicore");
    if (s.scale == 0)
        s.scale = defaultScale(s.workload);
    if (!(s.seconds >= 0) || !(s.scale > 0 && s.scale <= 1) ||
        s.threads == 0 || s.threads > 64)
        usage("--seconds, --scale or --threads out of range");
    return s;
}

/** Grid set-up only, every cell, serially: summed set-up seconds. */
double
setupSample(const std::vector<GridCell> &grid, const Settings &s)
{
    double sum = 0;
    for (const auto &c : grid) {
        RunConfig cfg = configOf(c, s);
        cfg.seed = deriveCellSeed(s.seed, c.workload, Technique::kNone);
        sum += setupOnly(c.workload, cfg);
    }
    return sum;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
run(const Settings &s)
{
    const std::vector<GridCell> grid = gridOf(s.workload);
    const auto start = Clock::now();
    std::printf("workload %s: %zu cells, scale %g, %u worker threads, "
                "seed 0x%" PRIx64 ", %s\n",
                s.workload.c_str(), grid.size(), s.scale, s.threads, s.seed,
                s.trace ? "traced" : "untraced");

    // Closed loop of whole-grid passes: keep going while another pass of
    // the last one's length still fits in the time budget.
    const auto keepGoing = [&](double lastWall) {
        return secondsSince(start) + lastWall <= s.seconds;
    };

    Check total;
    const auto account = [&total, &grid](const Pass &p, bool verbose) {
        const Check c = checkPass(grid, p, verbose);
        total.attempted += c.attempted;
        total.failed += c.failed;
        total.skipped += c.skipped;
    };

    if (!s.trace) {
        // Set-up samples: set every cell up (no simulation) three times.
        std::vector<double> setups;
        for (int i = 0; i < 3; ++i)
            setups.push_back(setupSample(grid, s));

        std::vector<Pass> passes;
        do {
            passes.push_back(runPass(grid, s, false));
            account(passes.back(), passes.size() == 1);
        } while (keepGoing(passes.back().wall));

        std::vector<double> walls, mips;
        for (const Pass &p : passes) {
            double instrs = 0;
            for (const auto &o : p.outcomes)
                instrs += static_cast<double>(o.result.instrs);
            walls.push_back(p.wall);
            mips.push_back(ratio(instrs / 1e6, cellSeconds(p)));
        }
        const Pass &first = passes.front();
        const Technique manual = Technique::kManual;
        const double manualSpeedup = speedupGeomean(grid, first, &manual);
        if (manualSpeedup > 0) {
            std::printf("Manual geomean speedup %.17gx (paper: %.1fx; the "
                        "model is unvalidated, no per-workload reference "
                        "results exist, so no error figure is given)\n",
                        manualSpeedup, kPaperManualSpeedup);
        }
        std::printf("%zu passes, %" PRIu64 " cells attempted, %" PRIu64
                    " failed, %" PRIu64 " skipped as n/a\n",
                    passes.size(), total.attempted, total.failed,
                    total.skipped);

        Values v;
        v["wall_s"] = median(walls);
        v["sim_mips"] = median(mips);
        v["setup_s"] = median(setups);
        v["peak_rss_mib"] = peakRssMib();
        v["cells_ok_ratio"] =
            ratio(static_cast<double>(total.attempted - total.failed),
                  static_cast<double>(total.attempted));
        v["speedup_geomean"] = speedupGeomean(grid, first);
        printResult(total.failed == 0, total, kEndToEnd, v);
        return 0;
    }

    // Untraced and traced passes alternate, so both see the same host
    // conditions; the first untraced pass is the parity reference.
    std::vector<Pass> untraced;
    std::vector<double> untracedCellSums;
    std::vector<Values> samples;
    double lastWall = 0;
    do {
        untraced.push_back(runPass(grid, s, false));
        account(untraced.back(), untraced.size() == 1);
        untracedCellSums.push_back(cellSeconds(untraced.back()));
        const Pass traced = runPass(grid, s, true);
        account(traced, false);
        checkParity(grid, untraced.front(), traced);
        samples.push_back(layerValues(grid, traced, s));
        if (samples.size() == 1)
            printCells(grid, traced);
        lastWall = untraced.back().wall + traced.wall;
    } while (keepGoing(lastWall));
    std::printf("%zu traced passes, every cell's stats identical to "
                "runExperiment's\n",
                samples.size());

    Values v;
    for (const auto &m : kPerLayer) {
        std::vector<double> xs;
        for (const auto &smp : samples)
            xs.push_back(smp.count(m.name) ? smp.at(m.name) : 0.0);
        v[m.name] = median(xs);
    }
    // Traced vs untraced summed cell time, as medians over the passes.
    std::vector<double> tracedCellSums;
    for (const auto &smp : samples)
        tracedCellSums.push_back(smp.at("runner.cell_s_sum"));
    v["bench.trace_overhead"] =
        ratio(median(tracedCellSums), median(untracedCellSums));
    printResult(total.failed == 0, total, kPerLayer, v);
    return 0;
}

} // namespace
} // namespace epf::bench

int
main(int argc, char **argv)
{
    return epf::bench::run(epf::bench::parseArgs(argc, argv));
}

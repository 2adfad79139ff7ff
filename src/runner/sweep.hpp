/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The Section 7 evaluation is a grid: ~9 techniques x 8 workloads, with
 * ablation axes (PPU clock, PPU count, blocking) layered on top.  Every
 * run is independent — it owns a fresh workload instance, GuestMemory and
 * EventQueue — so the grid is embarrassingly parallel across host
 * threads.  The engine queues cells, fans them out over a thread pool,
 * and returns outcomes in submission order.
 *
 * Determinism: each cell's RNG seed is derived from
 * (base seed, workload name, technique) via deriveCellSeed(), never from
 * submission order or scheduling, so a sweep produces bit-identical
 * RunResults at any thread count.
 */

#ifndef EPF_RUNNER_SWEEP_HPP
#define EPF_RUNNER_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/experiment.hpp"

namespace epf
{

/** One cell of a sweep: a named workload under one full RunConfig. */
struct SweepCell
{
    std::string workload;
    RunConfig config;
    /** Free-form tag distinguishing ablation points ("1GHz", "6 PPUs"). */
    std::string label;
    /**
     * Technique used for seed derivation; defaults to
     * config.technique.  Figure grids that compare techniques on the
     * same dataset pin every column of a workload to one technique's
     * seed (the paper runs all techniques on identical inputs).
     */
    Technique seedTechnique = Technique::kNone;
};

/** The outcome of one cell. */
struct SweepOutcome
{
    SweepCell cell;
    RunResult result;
    bool failed = false; ///< runExperiment threw
    std::string error;
    double hostSeconds = 0.0;
};

/**
 * Deterministic per-cell seed: mixes the base seed with the workload
 * name and technique so (a) different cells decorrelate and (b) the same
 * (workload, technique) pair seeds identically in every sweep shape.
 */
std::uint64_t deriveCellSeed(std::uint64_t base, const std::string &workload,
                             Technique tech);

/** Batched, parallel driver for grids of runExperiment() calls. */
class SweepEngine
{
  public:
    struct Options
    {
        /** Worker threads; 0 means std::thread::hardware_concurrency(). */
        unsigned threads = 0;
        /** Base seed every cell's seed is derived from. */
        std::uint64_t baseSeed = 0xE7F5EED5;
        /**
         * When true (default), each cell's RunConfig::seed is overwritten
         * with deriveCellSeed(); set false to honour caller seeds.
         */
        bool deriveSeeds = true;
        /** Invoked after each cell completes (serialised; may be empty). */
        std::function<void(std::size_t done, std::size_t total,
                           const SweepOutcome &)>
            progress;
        /**
         * Per-cell wall-clock watchdog, in seconds (0 disables).  A cell
         * exceeding it makes run() abandon the pool (hung threads are
         * detached, never joined — they cannot be killed) and throw a
         * std::runtime_error naming the hung cell's workload, technique,
         * label and seed, instead of wedging forever.  Results computed
         * by abandoned workers are discarded, never committed.
         */
        double cellTimeoutSeconds = 0.0;
        /**
         * Test hook: when set, runs each cell instead of
         * runExperiment() (the cell arrives with its derived seed).
         * The watchdog tests use it to install a deliberately-hung
         * workload that a later release can actually unhang.
         */
        std::function<RunResult(const SweepCell &)> runCell;
    };

    SweepEngine() = default;
    explicit SweepEngine(Options opts) : opts_(std::move(opts)) {}

    /**
     * Queue one cell; returns its index into run()'s result vector.
     * @p seedAs overrides the technique the seed is derived from (see
     * SweepCell::seedTechnique); defaults to cfg.technique.
     */
    std::size_t add(std::string workload, RunConfig cfg,
                    std::string label = "",
                    std::optional<Technique> seedAs = std::nullopt);

    /**
     * Queue the full workload x technique grid, cloning @p proto for
     * every cell (row-major: all techniques of workloads[0] first).
     * Returns the index of the first queued cell.
     */
    std::size_t addGrid(const std::vector<std::string> &workloads,
                        const std::vector<Technique> &techniques,
                        const RunConfig &proto,
                        std::optional<Technique> seedAs = std::nullopt);

    std::size_t size() const { return cells_.size(); }
    const std::vector<SweepCell> &cells() const { return cells_; }

    /**
     * Run every queued cell across the pool and clear the queue.
     * Outcomes are indexed by submission order regardless of thread
     * count or completion order.  A cell whose runExperiment() throws
     * yields failed=true rather than aborting the sweep.
     */
    std::vector<SweepOutcome> run();

    /** Serialise outcomes as a JSON array (checksums as decimal strings
     *  — they exceed the 2^53 integer range JSON readers preserve).
     *  @p detail additionally embeds every RunResult::detail counter. */
    static void writeJson(std::ostream &os,
                          const std::vector<SweepOutcome> &outcomes,
                          bool detail = false);

  private:
    Options opts_;
    std::vector<SweepCell> cells_;
};

/** Worker count from EPF_THREADS, else @p fallback (0 = all cores). */
unsigned sweepThreadsFromEnv(unsigned fallback = 0);

/** Simulated-machine core count from EPF_CORES (1..32), else
 *  @p fallback.  Applied by the benches to every cell's RunConfig. */
unsigned sweepCoresFromEnv(unsigned fallback = 1);

/** Fault schedule from EPF_FAULTS (see parseFaultConfig() for the
 *  grammar), else disabled.  Malformed input throws, like any other
 *  configuration error. */
FaultConfig sweepFaultsFromEnv();

/** Per-cell watchdog seconds from EPF_CELL_TIMEOUT, else @p fallback
 *  (0 = no watchdog). */
double sweepCellTimeoutFromEnv(double fallback = 0.0);

/**
 * Filesystem-safe form of a workload/technique/label name (non
 * [alnum._-] bytes become '-').  Shared by the sweep's capture-path
 * placeholders and the golden file names so the two stay consistent.
 */
std::string sanitizeFileToken(const std::string &token);

/** Minimal JSON string escape (quotes, backslashes, control chars),
 *  shared by the sweep and golden JSON writers. */
std::string jsonEscape(const std::string &s);

} // namespace epf

#endif // EPF_RUNNER_SWEEP_HPP

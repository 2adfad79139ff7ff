/**
 * @file
 * Experiment harness: assemble the Table 1 machine around a workload,
 * attach one prefetching technique, run to completion and collect the
 * metrics every figure of Section 7 needs.
 */

#ifndef EPF_RUNNER_EXPERIMENT_HPP
#define EPF_RUNNER_EXPERIMENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "ppf/ppf.hpp"
#include "prefetch/ghb.hpp"
#include "prefetch/stride.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "workloads/workload.hpp"

namespace epf
{

/** The prefetching techniques compared in Figure 7 (plus the Fig. 11
 *  blocked-mode ablation). */
enum class Technique
{
    kNone,
    kStride,
    kGhbRegular,
    kGhbLarge,
    kSoftware,
    kPragma,
    kConverted,
    kManual,
    kManualBlocked,
};

/** Display name as used in the paper's legends. */
std::string techniqueName(Technique t);

/** Full configuration of one run. */
struct RunConfig
{
    Technique technique = Technique::kNone;
    CoreParams core;
    MemParams mem = MemParams::defaults();
    PpfConfig ppf;
    StrideParams stride;
    GhbParams ghbRegular = GhbParams::regular();
    GhbParams ghbLarge = GhbParams::large();
    std::uint64_t seed = 0xE7F5EED5;
    WorkloadScale scale;
    /**
     * Fault-injection schedule of this run (disabled by default; see
     * sim/fault.hpp).  The schedule derives from `seed`, so the same
     * (config, seed) pair injects bit-identically across thread counts
     * and trace replay.  Architectural results must not change under
     * any schedule — the tier-2 FaultParity matrix enforces it.
     */
    FaultConfig faults;
    /**
     * Number of cores in the machine.  Each core owns a private L1,
     * TLB slice and prefetcher instance over the shared banked L2
     * (one bank per core unless mem.l2Banks overrides).  Shardable
     * workloads partition their outer loop across all cores; serial
     * workloads run on core 0 with the other cores idle.  1 is the
     * paper's Table 1 uniprocessor and is bit-identical to the
     * pre-multicore machine.
     */
    unsigned cores = 1;
    /**
     * When non-empty, capture the demand micro-op stream of this run to
     * the given trace file (see src/trace/trace.hpp).  Inside sweeps the
     * placeholders {workload}, {technique} and {label} expand per cell.
     * Capture requires cores == 1 (the trace format has no core field
     * yet); multi-core capture is a configure-time error.
     */
    std::string tracePath;
};

/** Everything a bench needs from one run. */
struct RunResult
{
    bool available = true; ///< false when the technique doesn't apply
    std::string note;

    /** Slowest core's cycle count (the parallel critical path). */
    std::uint64_t cycles = 0;
    /** Instructions summed over all cores. */
    std::uint64_t instrs = 0;
    Tick ticks = 0;

    double l1ReadHitRate = 0.0;
    double l2HitRate = 0.0;
    double pfUtilisation = 0.0; ///< used / L1 prefetch fills
    std::uint64_t l1PrefetchFills = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    /** Per-PPU busy fraction (programmable techniques only); for a
     *  multi-core run, core 0's PPUs first, then core 1's, ... */
    std::vector<double> ppuActivity;
    std::uint64_t ppfEventsRun = 0;
    std::uint64_t ppfObservations = 0;

    std::uint64_t checksum = 0;

    /** Total faults injected (0 when fault injection is disabled). */
    std::uint64_t faultsInjected = 0;

    /** Pass remarks (converted/pragma techniques). */
    std::vector<std::string> remarks;

    /** Every counter the components expose, by name (see README.md,
     *  "Machine model: CorePort / Uncore", for the multi-core names). */
    StatRegistry detail;
};

/** True for the techniques that use the programmable prefetcher. */
bool usesPpf(Technique t);

/**
 * Run @p workload_name under @p cfg.  A fresh workload instance is
 * created for every run so functional state and caches start cold.
 * Throws std::runtime_error when a core has not retired its whole trace
 * once every event has run.
 */
RunResult runExperiment(const std::string &workload_name,
                        const RunConfig &cfg);

} // namespace epf

#endif // EPF_RUNNER_EXPERIMENT_HPP

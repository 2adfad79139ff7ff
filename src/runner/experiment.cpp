#include "runner/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "compiler/passes.hpp"
#include "mem/core_port.hpp"
#include "mem/guest_memory.hpp"
#include "mem/uncore.hpp"
#include "sim/event_queue.hpp"
#include "trace/trace.hpp"

namespace epf
{

std::string
techniqueName(Technique t)
{
    switch (t) {
      case Technique::kNone: return "None";
      case Technique::kStride: return "Stride";
      case Technique::kGhbRegular: return "GHB(regular)";
      case Technique::kGhbLarge: return "GHB(large)";
      case Technique::kSoftware: return "Software";
      case Technique::kPragma: return "Pragma";
      case Technique::kConverted: return "Converted";
      case Technique::kManual: return "Manual";
      case Technique::kManualBlocked: return "Blocked";
    }
    return "?";
}

bool
usesPpf(Technique t)
{
    return t == Technique::kPragma || t == Technique::kConverted ||
           t == Technique::kManual || t == Technique::kManualBlocked;
}

namespace
{

/** The trace an idle core runs (serial workload, core > 0). */
Generator<MicroOp>
emptyTrace()
{
    co_return;
}

/** Per-core prefetcher instances attached to one core port. */
struct CoreTechnique
{
    std::unique_ptr<StridePrefetcher> stride;
    std::unique_ptr<GhbPrefetcher> ghb;
    std::unique_ptr<ProgrammablePrefetcher> ppf;
};

} // namespace

RunResult
runExperiment(const std::string &workload_name, const RunConfig &cfg)
{
    RunResult res;

    auto wl = makeWorkload(workload_name, cfg.scale);
    if (!wl)
        throw std::invalid_argument("unknown workload: " + workload_name);

    if (cfg.technique == Technique::kSoftware && !wl->supportsSoftware()) {
        res.available = false;
        res.note = "no direct memory address access so software prefetch "
                   "not possible";
        return res;
    }

    const unsigned cores = cfg.cores > 0 ? cfg.cores : 1;
    if (cores > 32)
        throw std::invalid_argument("RunConfig::cores exceeds 32");
    if (cores > 1 && !cfg.tracePath.empty()) {
        // The trace format has no core field: interleaving several
        // cores' streams into it would produce a corrupt capture, so
        // reject at configure time rather than write garbage.
        throw std::invalid_argument(
            "trace capture requires cores == 1 (capture of workload '" +
            workload_name + "' was requested with cores = " +
            std::to_string(cores) + ")");
    }

    EventQueue eq;
    GuestMemory gmem;
    wl->setup(gmem, cfg.seed);

    // One fault injector per run, shared by every component: the
    // simulation of a run is single-threaded, so its draws happen in
    // deterministic event order; the schedule is a pure function of
    // (cfg.faults, cfg.seed).
    std::unique_ptr<FaultInjector> faults;
    if (cfg.faults.enabled)
        faults = std::make_unique<FaultInjector>(cfg.faults, cfg.seed);

    // Machine assembly: one shared uncore (banked L2, DRAM, page
    // table, coherence directory), one private port + core per core id.
    Uncore uncore(eq, gmem, cfg.mem, cores);
    uncore.dram().setFaultInjector(faults.get());
    std::vector<std::unique_ptr<CorePort>> ports;
    std::vector<std::unique_ptr<Core>> cpus;
    ports.reserve(cores);
    cpus.reserve(cores);
    for (unsigned i = 0; i < cores; ++i) {
        ports.push_back(
            std::make_unique<CorePort>(eq, gmem, uncore, cfg.mem, i));
        ports.back()->setFaultInjector(faults.get());
        cpus.push_back(std::make_unique<Core>(eq, cfg.core, *ports[i], i));
    }

    // Technique attachment: every core gets its own prefetcher
    // instance over its own L1 (the paper's PPF is per-core).
    std::vector<CoreTechnique> tech(cores);

    // Compiled techniques run the passes once; the resulting program
    // installs into every core's PPF.
    std::vector<PassResult> passes;
    if (cfg.technique == Technique::kPragma ||
        cfg.technique == Technique::kConverted) {
        auto loops = wl->buildIR();
        for (const auto &loop : loops) {
            PassResult pr = cfg.technique == Technique::kConverted
                                ? convertSoftwarePrefetches(*loop)
                                : generateFromPragma(*loop);
            for (const auto &r : pr.program.remarks)
                res.remarks.push_back(r);
            if (!pr.ok) {
                res.remarks.push_back("loop not converted: " +
                                      pr.failureReason);
                continue;
            }
            passes.push_back(std::move(pr));
        }
        if (passes.empty()) {
            res.available = false;
            res.note = "compiler pass produced no events";
            return res;
        }
    }

    for (unsigned i = 0; i < cores; ++i) {
        CorePort &port = *ports[i];
        CoreTechnique &t = tech[i];
        switch (cfg.technique) {
          case Technique::kNone:
          case Technique::kSoftware:
            break;
          case Technique::kStride:
            t.stride = std::make_unique<StridePrefetcher>(cfg.stride);
            port.setListener(t.stride.get());
            port.setPrefetchSource(t.stride.get());
            break;
          case Technique::kGhbRegular:
            t.ghb = std::make_unique<GhbPrefetcher>(cfg.ghbRegular);
            port.setListener(t.ghb.get());
            port.setPrefetchSource(t.ghb.get());
            break;
          case Technique::kGhbLarge:
            t.ghb = std::make_unique<GhbPrefetcher>(cfg.ghbLarge);
            port.setListener(t.ghb.get());
            port.setPrefetchSource(t.ghb.get());
            break;
          case Technique::kPragma:
          case Technique::kConverted:
          case Technique::kManual:
          case Technique::kManualBlocked: {
            PpfConfig pc = cfg.ppf;
            if (cfg.technique == Technique::kManualBlocked)
                pc.blocking = true;
            t.ppf = std::make_unique<ProgrammablePrefetcher>(eq, gmem, pc);

            if (cfg.technique == Technique::kManual ||
                cfg.technique == Technique::kManualBlocked) {
                wl->programManual(*t.ppf);
            } else {
                for (const auto &pr : passes)
                    pr.program.installInto(*t.ppf);
            }

            // The paper's PPU instruction budget: kernels must fit the
            // 4 KiB shared instruction cache (per core).  Programs are
            // guest-supplied input, so an oversized one is a clean
            // configuration error, not an assertion.
            if (t.ppf->kernels().totalBytes() > 4096) {
                throw std::invalid_argument(
                    "kernel programs of workload '" + workload_name +
                    "' exceed the 4 KiB PPU instruction budget (" +
                    std::to_string(t.ppf->kernels().totalBytes()) +
                    " bytes)");
            }

            port.setListener(t.ppf.get());
            port.setPrefetchSource(t.ppf.get());
            t.ppf->setKick([&port] { port.kickPrefetcher(); });
            t.ppf->setFaultInjector(faults.get());
            break;
          }
        }
    }

    // Optional trace capture (single-core only, enforced above):
    // record every fetched micro-op plus the line payloads a replay
    // needs (capture starts after setup, so the region table in the
    // header is complete).
    std::unique_ptr<TraceWriter> capture;
    if (!cfg.tracePath.empty()) {
        // A replayed trace re-captures as an origin-less stream rather
        // than recording "Trace" as its own source.
        const std::string source =
            wl->name() == "Trace" ? std::string() : wl->name();
        capture = std::make_unique<TraceWriter>(
            cfg.tracePath, gmem, source, cfg.scale.factor, cfg.seed,
            cfg.technique == Technique::kSoftware);
        cpus[0]->setFetchSink(capture.get());
    }

    // Partition the workload: shardable workloads split their outer
    // loop over all cores; serial ones run whole on core 0 and the
    // other cores retire an empty trace immediately.
    const bool swpf = cfg.technique == Technique::kSoftware;
    const unsigned shards = wl->supportsSharding() ? cores : 1;
    std::vector<char> done(cores, 0);
    for (unsigned i = 0; i < cores; ++i) {
        Generator<MicroOp> trace =
            shards == 1 ? (i == 0 ? wl->trace(swpf) : emptyTrace())
                        : wl->shardTrace(i, shards, swpf);
        char *flag = &done[i];
        cpus[i]->run(std::move(trace), [flag] { *flag = 1; });
    }
    // Drain every event (outstanding prefetches included).
    while (!eq.empty())
        eq.run(1'000'000);
    // A core still unfinished once the queue is empty waits on a value
    // its trace never produces: fail rather than report partial counters.
    for (unsigned i = 0; i < cores; ++i) {
        if (!done[i])
            throw std::runtime_error("core " + std::to_string(i) +
                                     " did not finish workload '" +
                                     workload_name + "'");
    }

    if (capture)
        capture->finalize(wl->checksum());

    // ---- Collect metrics ----

    res.ticks = eq.now();

    for (unsigned i = 0; i < cores; ++i) {
        const auto &c = cpus[i]->stats();
        res.cycles = std::max(res.cycles, c.cycles);
        res.instrs += c.instrs;
    }

    Cache::Stats l1{}; // aggregate over L1s
    for (unsigned i = 0; i < cores; ++i)
        l1 += ports[i]->l1().stats();
    res.l1ReadHitRate =
        l1.loads > 0
            ? static_cast<double>(l1.loadHits) / static_cast<double>(l1.loads)
            : 0.0;

    const Cache::Stats l2 = uncore.l2Stats();
    std::uint64_t l2_demand =
        l2.lowerReads; // reads from L1 (demand + prefetch misses)
    res.l2HitRate = l2_demand > 0 ? static_cast<double>(l2.lowerReadHits) /
                                        static_cast<double>(l2_demand)
                                  : 0.0;

    std::uint64_t fills = l1.prefetchFills;
    res.l1PrefetchFills = fills;
    res.pfUtilisation =
        fills > 0 ? static_cast<double>(l1.pfUsed) /
                        static_cast<double>(fills)
                  : 0.0;

    res.dramReads = uncore.dram().stats().reads;
    res.dramWrites = uncore.dram().stats().writes;

    const Tick total = res.ticks > 0 ? res.ticks : 1;
    for (unsigned i = 0; i < cores; ++i) {
        if (!tech[i].ppf)
            continue;
        for (const auto &ps : tech[i].ppf->ppuStats()) {
            res.ppuActivity.push_back(static_cast<double>(ps.busyTicks) /
                                      static_cast<double>(total));
        }
        res.ppfEventsRun += tech[i].ppf->stats().eventsRun;
        res.ppfObservations += tech[i].ppf->stats().observations;
    }

    res.checksum = wl->checksum();

    // ---- Publish every component counter ----
    //
    // A single-core run publishes exactly the historical names
    // ("core.cycles", "l1.loads", ...); a multi-core run prefixes each
    // per-core block with "coreN." and adds the shared uncore block.
    // setUnique() turns any accidental aliasing between two components
    // into a hard error instead of a silently overwritten counter.
    auto &d = res.detail;
    const auto set = [&d](const std::string &name, double v) {
        d.setUnique(name, v);
    };

    for (unsigned i = 0; i < cores; ++i) {
        // Single-core: the historical names ("core.cycles",
        // "l1.loads").  Multi-core: "coreN.cycles", "coreN.l1.loads".
        const std::string cpfx =
            cores == 1 ? "core." : "core" + std::to_string(i) + ".";
        const std::string pfx =
            cores == 1 ? std::string() : "core" + std::to_string(i) + ".";
        const auto &c = cpus[i]->stats();
        set(cpfx + "cycles", static_cast<double>(c.cycles));
        set(cpfx + "instrs", static_cast<double>(c.instrs));
        set(cpfx + "loads", static_cast<double>(c.loads));
        set(cpfx + "stores", static_cast<double>(c.stores));
        set(cpfx + "swPrefetches", static_cast<double>(c.swPrefetches));
        set(cpfx + "commitStallCycles",
            static_cast<double>(c.commitStallCycles));
        set(cpfx + "robFullCycles",
            static_cast<double>(c.robFullCycles));

        const auto &s = ports[i]->l1().stats();
        set(pfx + "l1.loads", static_cast<double>(s.loads));
        set(pfx + "l1.loadHits", static_cast<double>(s.loadHits));
        set(pfx + "l1.demandMerges", static_cast<double>(s.demandMerges));
        set(pfx + "l1.mshrRejects", static_cast<double>(s.mshrRejects));
        set(pfx + "l1.prefetchFills",
            static_cast<double>(s.prefetchFills));
        set(pfx + "l1.pfUsed", static_cast<double>(s.pfUsed));
        set(pfx + "l1.pfUsedLate", static_cast<double>(s.pfUsedLate));
        set(pfx + "l1.pfUnusedEvicted",
            static_cast<double>(s.pfUnusedEvicted));
        set(pfx + "l1.pfDropPresent",
            static_cast<double>(s.pfDropPresent));
        set(pfx + "l1.writebacks", static_cast<double>(s.writebacks));
        if (cores > 1) {
            set(pfx + "l1.invalidations",
                static_cast<double>(s.invalidations));
        }

        const auto &hs = ports[i]->stats();
        // Published only when the defensive skid bound actually shed
        // load: the golden stats of fault-free runs stay byte-stable.
        if (hs.pfSkidDropped > 0) {
            set(pfx + "mem.pfSkidDropped",
                static_cast<double>(hs.pfSkidDropped));
        }
        set(pfx + "mem.loadRetries", static_cast<double>(hs.loadRetries));
        set(pfx + "mem.storeRetries",
            static_cast<double>(hs.storeRetries));
        set(pfx + "mem.swPrefetchDrops",
            static_cast<double>(hs.swPrefetchDrops));
        set(pfx + "mem.pfIssued", static_cast<double>(hs.pfIssued));
        set(pfx + "mem.pfDropPresent",
            static_cast<double>(hs.pfDropPresent));
        set(pfx + "mem.pfDropMerged",
            static_cast<double>(hs.pfDropMerged));
        set(pfx + "mem.pfDropFault", static_cast<double>(hs.pfDropFault));

        const auto &ts = ports[i]->tlb().stats();
        set(pfx + "tlb.l1Hits", static_cast<double>(ts.l1Hits));
        set(pfx + "tlb.l2Hits", static_cast<double>(ts.l2Hits));
        set(pfx + "tlb.walks", static_cast<double>(ts.walks));
        set(pfx + "tlb.faults", static_cast<double>(ts.faults));

        if (tech[i].ppf) {
            const auto &ps = tech[i].ppf->stats();
            set(pfx + "ppf.observations",
                static_cast<double>(ps.observations));
            set(pfx + "ppf.obsDropped",
                static_cast<double>(ps.obsDropped));
            set(pfx + "ppf.obsNoData", static_cast<double>(ps.obsNoData));
            set(pfx + "ppf.eventsRun", static_cast<double>(ps.eventsRun));
            set(pfx + "ppf.traps", static_cast<double>(ps.traps));
            set(pfx + "ppf.prefetchesEmitted",
                static_cast<double>(ps.prefetchesEmitted));
            set(pfx + "ppf.reqDropped",
                static_cast<double>(ps.reqDropped));
            set(pfx + "ppf.chainSamples",
                static_cast<double>(ps.chainSamples));
            set(pfx + "ppf.blockedStalls",
                static_cast<double>(ps.blockedStalls));
            set(pfx + "ppf.lookahead0",
                static_cast<double>(tech[i].ppf->lookaheadOf(0)));

            // Degradation counters publish only when their mechanism
            // is configured on (or, for the blocked-local bound, when
            // it actually dropped): default-config golden runs keep
            // their historical counter set byte-for-byte.
            const PpfConfig &pc = tech[i].ppf->config();
            if (ps.localDropped > 0) {
                set(pfx + "ppf.localDropped",
                    static_cast<double>(ps.localDropped));
            }
            if (pc.stormWindowTicks > 0) {
                set(pfx + "ppf.throttleDropped",
                    static_cast<double>(ps.throttleDropped));
                set(pfx + "ppf.throttleEntries",
                    static_cast<double>(ps.throttleEntries));
            }
            if (pc.quarantineThreshold > 0) {
                set(pfx + "ppf.quarantineKills",
                    static_cast<double>(ps.quarantineKills));
                set(pfx + "ppf.quarantineReenables",
                    static_cast<double>(ps.quarantineReenables));
                set(pfx + "ppf.quarantineSkips",
                    static_cast<double>(ps.quarantineSkips));
                set(pfx + "ppf.quarantineLogHash",
                    static_cast<double>(
                        tech[i].ppf->quarantineLogHash() >> 11));
            }
        }
    }

    set("l2.reads", static_cast<double>(l2.lowerReads));
    set("l2.readHits", static_cast<double>(l2.lowerReadHits));

    const auto &ds = uncore.dram().stats();
    set("dram.reads", static_cast<double>(ds.reads));
    set("dram.writes", static_cast<double>(ds.writes));
    set("dram.rowHits", static_cast<double>(ds.rowHits));
    set("dram.rowMisses", static_cast<double>(ds.rowMisses));
    set("dram.prefetchReads", static_cast<double>(ds.prefetchReads));
    if (ds.reads > 0) {
        set("dram.avgReadLatencyNs",
            static_cast<double>(ds.totalReadLatency) /
                static_cast<double>(ds.reads) / kTicksPerNs);
    }

    if (faults) {
        res.faultsInjected = faults->totalFired();
        // Every site publishes (zero included): a schedule is readable
        // off the sweep JSON alone.  The whole block is keyed on
        // cfg.faults.enabled, so fault-free runs (all goldens) don't
        // gain counters.
        set("fault.injected", static_cast<double>(res.faultsInjected));
        for (unsigned s = 0; s < kNumFaultSites; ++s) {
            const auto site = static_cast<FaultSite>(s);
            set(std::string("fault.") + faultSiteName(site) + ".injected",
                static_cast<double>(faults->fired(site)));
        }
    }

    if (cores > 1) {
        const auto &us = uncore.stats();
        set("uncore.cores", static_cast<double>(cores));
        set("uncore.l2Banks", static_cast<double>(uncore.banks()));
        set("uncore.arbGrants", static_cast<double>(us.arbGrants));
        set("uncore.arbConflicts", static_cast<double>(us.arbConflicts));
        set("uncore.invalidations",
            static_cast<double>(us.invalidations));
        set("uncore.downgrades", static_cast<double>(us.downgrades));
        for (unsigned b = 0; b < uncore.banks(); ++b) {
            const auto &bs = uncore.l2Bank(b).stats();
            const std::string bpfx = "l2.b" + std::to_string(b) + ".";
            set(bpfx + "reads", static_cast<double>(bs.lowerReads));
            set(bpfx + "readHits",
                static_cast<double>(bs.lowerReadHits));
        }
    }

    return res;
}

} // namespace epf

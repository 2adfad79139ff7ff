#include "cell.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "compiler/passes.hpp"
#include "mem/core_port.hpp"
#include "mem/guest_memory.hpp"
#include "mem/uncore.hpp"
#include "sim/event_queue.hpp"

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

/** Adds the wall time of its scope to a span. */
class Bracket
{
  public:
    explicit Bracket(double &span) : span_(span), t0_(Clock::now()) {}
    ~Bracket() { span_ += secondsSince(t0_); }
    Bracket(const Bracket &) = delete;
    Bracket &operator=(const Bracket &) = delete;

  private:
    double &span_;
    Clock::time_point t0_;
};

/**
 * Listener + prefetch-source decorator timing every call into the
 * prefetcher it wraps.  Only the outermost call of a nest is timed: a
 * PPF kick re-enters the port, which polls this same source again.
 */
class TimedPrefetcher final : public MemoryListener, public PrefetchSource
{
  public:
    TimedPrefetcher(MemoryListener &listener, PrefetchSource &source,
                    double &span, int &depth)
        : listener_(listener), source_(source), span_(span), depth_(depth)
    {
    }

    void
    notifyDemand(Addr vaddr, bool is_load, bool hit, int stream_id) override
    {
        Timed t(*this);
        listener_.notifyDemand(vaddr, is_load, hit, stream_id);
    }

    void
    notifyPrefetchFill(const LineRequest &req) override
    {
        Timed t(*this);
        listener_.notifyPrefetchFill(req);
    }

    void
    notifyPrefetchDropped(const LineRequest &req) override
    {
        Timed t(*this);
        listener_.notifyPrefetchDropped(req);
    }

    bool
    hasRequest() const override
    {
        Timed t(*this);
        return source_.hasRequest();
    }

    LineRequest
    popRequest() override
    {
        Timed t(*this);
        return source_.popRequest();
    }

  private:
    class Timed
    {
      public:
        explicit Timed(const TimedPrefetcher &p) : p_(p)
        {
            if (p_.depth_++ == 0)
                t0_ = Clock::now();
        }
        ~Timed()
        {
            if (--p_.depth_ == 0)
                p_.span_ += secondsSince(t0_);
        }
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        const TimedPrefetcher &p_;
        Clock::time_point t0_{};
    };

    MemoryListener &listener_;
    PrefetchSource &source_;
    double &span_;
    int &depth_;
};

/** Forward @p inner, timing each resume of the workload's coroutine. */
Generator<MicroOp>
timedTrace(Generator<MicroOp> inner, CellSpans &spans)
{
    for (;;) {
        const auto t0 = Clock::now();
        const bool more = inner.next();
        spans.trace += secondsSince(t0);
        if (!more)
            co_return;
        ++spans.microops;
        co_yield std::move(inner.value());
    }
}

Generator<MicroOp>
emptyTrace()
{
    co_return;
}

/** Per-core prefetcher instances (as runExperiment attaches them). */
struct CoreTechnique
{
    std::unique_ptr<StridePrefetcher> stride;
    std::unique_ptr<GhbPrefetcher> ghb;
    std::unique_ptr<ProgrammablePrefetcher> ppf;
    std::unique_ptr<TimedPrefetcher> probe;
};

/**
 * Everything one cell owns, declared in runExperiment()'s local order so
 * destruction runs in the same order too.
 */
struct Machine
{
    std::unique_ptr<Workload> wl;
    EventQueue eq;
    GuestMemory gmem;
    std::unique_ptr<FaultInjector> faults;
    std::unique_ptr<Uncore> uncore;
    std::vector<std::unique_ptr<CorePort>> ports;
    std::vector<std::unique_ptr<Core>> cpus;
    std::vector<CoreTechnique> tech;
    std::vector<PassResult> passes;
    std::vector<char> done;
    unsigned cores = 1;
    int probeDepth = 0;
};

/**
 * The set-up calls of runExperiment(), bracketed.  With @p probe the
 * micro-op stream and every prefetcher attachment are wrapped in the
 * timing decorators.  Returns false when the technique does not apply
 * (res.available/note already filled).
 */
bool
assemble(Machine &m, const std::string &workload, const RunConfig &cfg,
         RunResult &res, CellSpans &spans, bool probe)
{
    {
        Bracket b(spans.workloadSetup);
        m.wl = makeWorkload(workload, cfg.scale);
    }
    if (!m.wl)
        throw std::invalid_argument("unknown workload: " + workload);
    if (cfg.technique == Technique::kSoftware && !m.wl->supportsSoftware()) {
        res.available = false;
        res.note = "no direct memory address access so software prefetch "
                   "not possible";
        return false;
    }
    if (!cfg.tracePath.empty())
        throw std::invalid_argument("the benchmark does not capture traces");
    m.cores = cfg.cores > 0 ? cfg.cores : 1;
    if (m.cores > 32)
        throw std::invalid_argument("RunConfig::cores exceeds 32");
    const unsigned cores = m.cores;

    {
        Bracket b(spans.workloadSetup);
        m.wl->setup(m.gmem, cfg.seed);
    }

    {
        Bracket b(spans.machineBuild);
        if (cfg.faults.enabled)
            m.faults = std::make_unique<FaultInjector>(cfg.faults, cfg.seed);
        m.uncore = std::make_unique<Uncore>(m.eq, m.gmem, cfg.mem, cores);
        m.uncore->dram().setFaultInjector(m.faults.get());
        m.ports.reserve(cores);
        m.cpus.reserve(cores);
        for (unsigned i = 0; i < cores; ++i) {
            m.ports.push_back(std::make_unique<CorePort>(
                m.eq, m.gmem, *m.uncore, cfg.mem, i));
            m.ports.back()->setFaultInjector(m.faults.get());
            m.cpus.push_back(
                std::make_unique<Core>(m.eq, cfg.core, *m.ports[i], i));
        }
        m.tech.resize(cores);
    }

    if (cfg.technique == Technique::kPragma ||
        cfg.technique == Technique::kConverted) {
        std::vector<std::shared_ptr<LoopIR>> loops;
        {
            Bracket b(spans.workloadSetup);
            loops = m.wl->buildIR();
        }
        Bracket b(spans.compilerPass);
        for (const auto &loop : loops) {
            PassResult pr = cfg.technique == Technique::kConverted
                                ? convertSoftwarePrefetches(*loop)
                                : generateFromPragma(*loop);
            for (const auto &r : pr.program.remarks)
                res.remarks.push_back(r);
            if (!pr.ok) {
                ++spans.loopsFailed;
                res.remarks.push_back("loop not converted: " +
                                      pr.failureReason);
                continue;
            }
            ++spans.loopsConverted;
            m.passes.push_back(std::move(pr));
        }
        if (m.passes.empty()) {
            res.available = false;
            res.note = "compiler pass produced no events";
            return false;
        }
    }

    for (unsigned i = 0; i < cores; ++i) {
        CorePort &port = *m.ports[i];
        CoreTechnique &t = m.tech[i];
        MemoryListener *listener = nullptr;
        PrefetchSource *source = nullptr;
        double *span = &spans.listener;
        switch (cfg.technique) {
          case Technique::kNone:
          case Technique::kSoftware:
            break;
          case Technique::kStride: {
            Bracket b(spans.prefetchBuild);
            t.stride = std::make_unique<StridePrefetcher>(cfg.stride);
            listener = t.stride.get();
            source = t.stride.get();
            break;
          }
          case Technique::kGhbRegular:
          case Technique::kGhbLarge: {
            Bracket b(spans.prefetchBuild);
            t.ghb = std::make_unique<GhbPrefetcher>(
                cfg.technique == Technique::kGhbLarge ? cfg.ghbLarge
                                                      : cfg.ghbRegular);
            listener = t.ghb.get();
            source = t.ghb.get();
            break;
          }
          case Technique::kPragma:
          case Technique::kConverted:
          case Technique::kManual:
          case Technique::kManualBlocked: {
            Bracket b(spans.ppfProgram);
            PpfConfig pc = cfg.ppf;
            if (cfg.technique == Technique::kManualBlocked)
                pc.blocking = true;
            t.ppf = std::make_unique<ProgrammablePrefetcher>(m.eq, m.gmem, pc);
            if (cfg.technique == Technique::kManual ||
                cfg.technique == Technique::kManualBlocked) {
                m.wl->programManual(*t.ppf);
            } else {
                for (const auto &pr : m.passes)
                    pr.program.installInto(*t.ppf);
            }
            if (t.ppf->kernels().totalBytes() > 4096) {
                throw std::invalid_argument(
                    "kernel programs of workload '" + workload +
                    "' exceed the 4 KiB PPU instruction budget (" +
                    std::to_string(t.ppf->kernels().totalBytes()) +
                    " bytes)");
            }
            t.ppf->setKick([&port] { port.kickPrefetcher(); });
            t.ppf->setFaultInjector(m.faults.get());
            listener = t.ppf.get();
            source = t.ppf.get();
            span = &spans.frontdoor;
            break;
          }
        }
        if (listener == nullptr)
            continue;
        if (probe) {
            t.probe = std::make_unique<TimedPrefetcher>(*listener, *source,
                                                        *span, m.probeDepth);
            listener = t.probe.get();
            source = t.probe.get();
        }
        port.setListener(listener);
        port.setPrefetchSource(source);
    }

    Bracket b(spans.coreStart);
    const bool swpf = cfg.technique == Technique::kSoftware;
    const unsigned shards = m.wl->supportsSharding() ? cores : 1;
    m.done.assign(cores, 0);
    for (unsigned i = 0; i < cores; ++i) {
        Generator<MicroOp> trace =
            shards == 1 ? (i == 0 ? m.wl->trace(swpf) : emptyTrace())
                        : m.wl->shardTrace(i, shards, swpf);
        if (probe)
            trace = timedTrace(std::move(trace), spans);
        char *flag = &m.done[i];
        m.cpus[i]->run(std::move(trace), [flag] { *flag = 1; });
    }
    return true;
}

/** runExperiment()'s metric collection, verbatim in effect. */
void
collect(Machine &m, RunResult &res)
{
    const unsigned cores = m.cores;
    auto &uncore = *m.uncore;
    auto &ports = m.ports;
    auto &cpus = m.cpus;
    auto &tech = m.tech;

    res.ticks = m.eq.now();

    for (unsigned i = 0; i < cores; ++i) {
        const auto &c = cpus[i]->stats();
        res.cycles = std::max(res.cycles, c.cycles);
        res.instrs += c.instrs;
    }

    Cache::Stats l1{};
    for (unsigned i = 0; i < cores; ++i)
        l1 += ports[i]->l1().stats();
    res.l1ReadHitRate =
        l1.loads > 0
            ? static_cast<double>(l1.loadHits) / static_cast<double>(l1.loads)
            : 0.0;

    const Cache::Stats l2 = uncore.l2Stats();
    const std::uint64_t l2_demand = l2.lowerReads;
    res.l2HitRate = l2_demand > 0 ? static_cast<double>(l2.lowerReadHits) /
                                        static_cast<double>(l2_demand)
                                  : 0.0;

    const std::uint64_t fills = l1.prefetchFills;
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

    res.checksum = m.wl->checksum();

    auto &d = res.detail;
    const auto set = [&d](const std::string &name, double v) {
        d.setUnique(name, v);
    };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    for (unsigned i = 0; i < cores; ++i) {
        const std::string cpfx =
            cores == 1 ? "core." : "core" + std::to_string(i) + ".";
        const std::string pfx =
            cores == 1 ? std::string() : "core" + std::to_string(i) + ".";
        const auto &c = cpus[i]->stats();
        set(cpfx + "cycles", u(c.cycles));
        set(cpfx + "instrs", u(c.instrs));
        set(cpfx + "loads", u(c.loads));
        set(cpfx + "stores", u(c.stores));
        set(cpfx + "swPrefetches", u(c.swPrefetches));
        set(cpfx + "commitStallCycles", u(c.commitStallCycles));
        set(cpfx + "robFullCycles", u(c.robFullCycles));

        const auto &s = ports[i]->l1().stats();
        set(pfx + "l1.loads", u(s.loads));
        set(pfx + "l1.loadHits", u(s.loadHits));
        set(pfx + "l1.demandMerges", u(s.demandMerges));
        set(pfx + "l1.mshrRejects", u(s.mshrRejects));
        set(pfx + "l1.prefetchFills", u(s.prefetchFills));
        set(pfx + "l1.pfUsed", u(s.pfUsed));
        set(pfx + "l1.pfUsedLate", u(s.pfUsedLate));
        set(pfx + "l1.pfUnusedEvicted", u(s.pfUnusedEvicted));
        set(pfx + "l1.pfDropPresent", u(s.pfDropPresent));
        set(pfx + "l1.writebacks", u(s.writebacks));
        if (cores > 1)
            set(pfx + "l1.invalidations", u(s.invalidations));

        const auto &hs = ports[i]->stats();
        if (hs.pfSkidDropped > 0)
            set(pfx + "mem.pfSkidDropped", u(hs.pfSkidDropped));
        set(pfx + "mem.loadRetries", u(hs.loadRetries));
        set(pfx + "mem.storeRetries", u(hs.storeRetries));
        set(pfx + "mem.swPrefetchDrops", u(hs.swPrefetchDrops));
        set(pfx + "mem.pfIssued", u(hs.pfIssued));
        set(pfx + "mem.pfDropPresent", u(hs.pfDropPresent));
        set(pfx + "mem.pfDropMerged", u(hs.pfDropMerged));
        set(pfx + "mem.pfDropFault", u(hs.pfDropFault));

        const auto &ts = ports[i]->tlb().stats();
        set(pfx + "tlb.l1Hits", u(ts.l1Hits));
        set(pfx + "tlb.l2Hits", u(ts.l2Hits));
        set(pfx + "tlb.walks", u(ts.walks));
        set(pfx + "tlb.faults", u(ts.faults));

        if (tech[i].ppf) {
            const auto &ps = tech[i].ppf->stats();
            set(pfx + "ppf.observations", u(ps.observations));
            set(pfx + "ppf.obsDropped", u(ps.obsDropped));
            set(pfx + "ppf.obsNoData", u(ps.obsNoData));
            set(pfx + "ppf.eventsRun", u(ps.eventsRun));
            set(pfx + "ppf.traps", u(ps.traps));
            set(pfx + "ppf.prefetchesEmitted", u(ps.prefetchesEmitted));
            set(pfx + "ppf.reqDropped", u(ps.reqDropped));
            set(pfx + "ppf.chainSamples", u(ps.chainSamples));
            set(pfx + "ppf.blockedStalls", u(ps.blockedStalls));
            set(pfx + "ppf.lookahead0", u(tech[i].ppf->lookaheadOf(0)));

            const PpfConfig &pc = tech[i].ppf->config();
            if (ps.localDropped > 0)
                set(pfx + "ppf.localDropped", u(ps.localDropped));
            if (pc.stormWindowTicks > 0) {
                set(pfx + "ppf.throttleDropped", u(ps.throttleDropped));
                set(pfx + "ppf.throttleEntries", u(ps.throttleEntries));
            }
            if (pc.quarantineThreshold > 0) {
                set(pfx + "ppf.quarantineKills", u(ps.quarantineKills));
                set(pfx + "ppf.quarantineReenables",
                    u(ps.quarantineReenables));
                set(pfx + "ppf.quarantineSkips", u(ps.quarantineSkips));
                set(pfx + "ppf.quarantineLogHash",
                    u(tech[i].ppf->quarantineLogHash() >> 11));
            }
        }
    }

    set("l2.reads", u(l2.lowerReads));
    set("l2.readHits", u(l2.lowerReadHits));

    const auto &ds = uncore.dram().stats();
    set("dram.reads", u(ds.reads));
    set("dram.writes", u(ds.writes));
    set("dram.rowHits", u(ds.rowHits));
    set("dram.rowMisses", u(ds.rowMisses));
    set("dram.prefetchReads", u(ds.prefetchReads));
    if (ds.reads > 0) {
        set("dram.avgReadLatencyNs",
            u(ds.totalReadLatency) / u(ds.reads) / kTicksPerNs);
    }

    if (m.faults) {
        res.faultsInjected = m.faults->totalFired();
        set("fault.injected", u(res.faultsInjected));
        for (unsigned s = 0; s < kNumFaultSites; ++s) {
            const auto site = static_cast<FaultSite>(s);
            set(std::string("fault.") + faultSiteName(site) + ".injected",
                u(m.faults->fired(site)));
        }
    }

    if (cores > 1) {
        const auto &us = uncore.stats();
        set("uncore.cores", u(cores));
        set("uncore.l2Banks", u(uncore.banks()));
        set("uncore.arbGrants", u(us.arbGrants));
        set("uncore.arbConflicts", u(us.arbConflicts));
        set("uncore.invalidations", u(us.invalidations));
        set("uncore.downgrades", u(us.downgrades));
        for (unsigned b = 0; b < uncore.banks(); ++b) {
            const auto &bs = uncore.l2Bank(b).stats();
            const std::string bpfx = "l2.b" + std::to_string(b) + ".";
            set(bpfx + "reads", u(bs.lowerReads));
            set(bpfx + "readHits", u(bs.lowerReadHits));
        }
    }
}

} // namespace

RunResult
probeCell(const std::string &workload, const RunConfig &cfg, CellSpans &spans)
{
    RunResult res;
    auto m = std::make_unique<Machine>();
    if (assemble(*m, workload, cfg, res, spans, true)) {
        {
            Bracket b(spans.run);
            while (!m->eq.empty())
                m->eq.run(1'000'000);
        }
        for (char done : m->done) {
            if (!done)
                throw std::runtime_error("a core did not finish");
        }
        spans.events = m->eq.executed();
        Bracket b(spans.collect);
        collect(*m, res);
        for (const auto &t : m->tech) {
            const QueuedPrefetcher *q =
                t.stride ? static_cast<const QueuedPrefetcher *>(
                               t.stride.get())
                         : t.ghb.get();
            if (q != nullptr) {
                spans.pfEnqueued += q->queueStats().enqueued;
                spans.pfDroppedFull += q->queueStats().droppedFull;
            }
        }
    }
    Bracket b(spans.teardown);
    m.reset();
    return res;
}

double
setupOnly(const std::string &workload, const RunConfig &cfg)
{
    CellSpans spans;
    RunResult res;
    auto m = std::make_unique<Machine>();
    assemble(*m, workload, cfg, res, spans, false);
    m.reset();
    return spans.setup();
}

} // namespace epf::bench

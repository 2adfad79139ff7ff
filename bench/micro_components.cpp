/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own components:
 * event-queue throughput, cache access path, PPU interpreter, the
 * compiler pass and the Graph500 input generator.  These measure the
 * *host* cost of simulation, useful when scaling inputs.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "compiler/ir.hpp"
#include "compiler/passes.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"
#include "mem/cache.hpp"
#include "mem/core_port.hpp"
#include "mem/dram.hpp"
#include "mem/guest_memory.hpp"
#include "mem/uncore.hpp"
#include "ppf/filter.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/graph_gen.hpp"

namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        epf::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<epf::Tick>(i * 7 % 97), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

/**
 * The engine's real scheduling pattern: events that schedule follow-on
 * events, heavy same-tick fan-out (every completion path in the
 * hierarchy uses scheduleIn(0)), and capture sizes typical of the
 * demand path rather than a single reference.
 */
void
BM_EventQueueChained(benchmark::State &state)
{
    for (auto _ : state) {
        epf::EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < 256; ++i) {
            std::uint64_t a = static_cast<std::uint64_t>(i);
            std::uint64_t b = a * 3, c = a * 5, d = a * 7;
            eq.schedule(static_cast<epf::Tick>(i % 31),
                        [&eq, &sink, a, b, c, d] {
                            sink += a + b;
                            eq.scheduleIn(0, [&eq, &sink, c, d] {
                                sink += c + d;
                                eq.scheduleIn(3, [&sink] { ++sink; });
                            });
                        });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 256 * 3);
}
BENCHMARK(BM_EventQueueChained);

/**
 * Host cost of the full demand path: TLB translate, L1/L2 lookup, MSHR
 * allocation and retry, DRAM timing, completion callbacks.  The working
 * set exceeds the L1 so iterations exercise a steady hit/miss mix.
 */
void
BM_DemandPath(benchmark::State &state)
{
    epf::EventQueue eq;
    epf::GuestMemory gmem;
    std::vector<std::uint64_t> data(1 << 16); // 512 KiB: > L1, < L2
    const epf::Addr base =
        gmem.addRegion("bench", data.data(), data.size() * 8);
    const epf::MemParams p = epf::MemParams::defaults();
    epf::Uncore uncore(eq, gmem, p, 1);
    epf::CorePort port(eq, gmem, uncore, p, 0);
    epf::Rng rng(1);
    std::uint64_t done = 0;

    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            const epf::Addr a =
                base + (rng.next() & ((data.size() * 8) - 1) & ~7ULL);
            port.load(a, 0, [&done] { ++done; });
        }
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DemandPath);

/** Address-filter lookup, run on every snooped core read. */
void
BM_FilterMatch(benchmark::State &state)
{
    epf::FilterTable ft;
    for (int i = 0; i < 16; ++i) {
        epf::FilterEntry e;
        e.base = static_cast<epf::Addr>(i) * 0x100000;
        e.limit = e.base + 0x80000;
        ft.add(e);
    }
    epf::Rng rng(7);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const epf::Addr a = rng.next() & 0xFFFFFF;
        ft.match(a, [&](int idx, const epf::FilterEntry &) {
            sink += static_cast<std::uint64_t>(idx);
        });
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterMatch);

void
BM_CacheHits(benchmark::State &state)
{
    epf::EventQueue eq;
    epf::DramParams dp;
    epf::Dram dram(eq, dp);
    epf::CacheParams cp;
    cp.sizeBytes = 32 * 1024;
    cp.ways = 2;
    cp.mshrs = 12;
    epf::Cache cache(eq, cp, dram);
    // Warm one line.
    cache.demandAccess(true, 0x1000, 0x1000, [] {});
    eq.run();

    for (auto _ : state) {
        cache.demandAccess(true, 0x1000, 0x1000, [] {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHits);

void
BM_Interpreter(benchmark::State &state)
{
    epf::KernelBuilder b("bench");
    b.vaddr(1).gread(2, 0).sub(1, 1, 2).shri(1, 1, 3).addi(1, 1, 16)
        .shli(1, 1, 3).add(1, 1, 2).prefetch(1).halt();
    epf::Kernel k = b.build();
    std::uint64_t globals[epf::kGlobalRegs] = {0x10000};
    epf::EventContext ctx;
    ctx.vaddr = 0x10400;
    ctx.globalRegs = globals;

    std::vector<epf::PrefetchEmit> emits;
    for (auto _ : state) {
        emits.clear();
        auto res = epf::Interpreter::run(k, ctx, &emits);
        benchmark::DoNotOptimize(res.cycles);
        benchmark::DoNotOptimize(emits.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Interpreter);

void
BM_ConversionPass(benchmark::State &state)
{
    for (auto _ : state) {
        epf::LoopIR ir;
        epf::IrNode *a = ir.addArray("A", 0x10000, 8, 4096);
        epf::IrNode *b = ir.addArray("B", 0x80000, 8, 4096);
        epf::IrNode *c = ir.addArray("C", 0xC0000, 8, 4096);
        epf::IrNode *x = ir.indVar();
        epf::IrNode *a2 = ir.loadForSwpf(
            ir.index(a, ir.bin(epf::IrBin::kAdd, x, ir.cnst(16)), 8), 8,
            "A");
        epf::IrNode *b2 = ir.loadForSwpf(ir.index(b, a2, 8), 8, "B");
        ir.swpf(ir.index(c, b2, 8));
        auto res = epf::convertSoftwarePrefetches(ir);
        benchmark::DoNotOptimize(res.ok);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConversionPass);

/**
 * The Graph500 input generator at G500-CSR's golden-scale shape (scale
 * 14, edge factor 8): most of a G500 cell's set-up.
 */
void
BM_RmatEdges(benchmark::State &state)
{
    for (auto _ : state) {
        epf::Rng rng(1);
        epf::EdgeList edges = epf::rmatEdges(14, 8, rng);
        benchmark::DoNotOptimize(edges.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * (std::int64_t{8} << 14));
}
BENCHMARK(BM_RmatEdges);

void
BM_Rng(benchmark::State &state)
{
    epf::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Rng);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Tests for the compiler passes: Algorithm 1 software-prefetch
 * conversion, pragma generation, failure diagnostics matching the paper,
 * and end-to-end semantics of the generated kernels (checked by actually
 * interpreting them against synthetic observations).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compiler/event_program.hpp"
#include "compiler/ir.hpp"
#include "compiler/passes.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"
#include "mem/guest_memory.hpp"
#include "ppf/ppf.hpp"
#include "sim/event_queue.hpp"

namespace epf
{
namespace
{

/**
 * Build the paper's Figure 4/5 loop:
 *   for (x...) acc += C[B[A[x]]];  with  swpf(&C[B[A[x+dist]]]).
 */
struct Fig4Loop
{
    LoopIR ir;
    Addr baseA = 0x10000;
    Addr baseB = 0x80000;
    Addr baseC = 0xC0000;
    static constexpr std::int64_t kDist = 16;

    Fig4Loop()
    {
        IrNode *a = ir.addArray("A", baseA, 8, 4096);
        IrNode *b = ir.addArray("B", baseB, 8, 4096);
        IrNode *c = ir.addArray("C", baseC, 8, 4096);
        IrNode *x = ir.indVar();

        IrNode *av = ir.load(ir.index(a, x, 8), 8, "A");
        IrNode *bv = ir.load(ir.index(b, av, 8), 8, "B");
        (void)ir.load(ir.index(c, bv, 8), 8, "C");

        IrNode *a2 = ir.loadForSwpf(
            ir.index(a, ir.bin(IrBin::kAdd, x, ir.cnst(kDist)), 8), 8,
            "A_pf");
        IrNode *b2 = ir.loadForSwpf(ir.index(b, a2, 8), 8, "B_pf");
        ir.swpf(ir.index(c, b2, 8));
    }
};

/** Execute kernel @p k of @p prog with given vaddr/line word. */
std::vector<PrefetchEmit>
execKernel(const EventProgram &prog, std::size_t k, Addr vaddr,
           std::uint64_t data_word, bool has_line)
{
    // Globals live in slots named by the program.
    std::uint64_t globals[kGlobalRegs] = {};
    for (const auto &g : prog.globals)
        globals[g.slot] = g.value;
    std::uint64_t la[8] = {4, 4, 4, 4, 4, 4, 4, 4};

    EventContext ctx;
    ctx.vaddr = vaddr;
    ctx.hasLine = has_line;
    if (has_line) {
        unsigned off = lineOffset(vaddr) & ~7u;
        std::memcpy(ctx.line.data() + off, &data_word, 8);
    }
    ctx.globalRegs = globals;
    ctx.lookahead = la;
    ctx.lookaheadEntries = 8;

    std::vector<PrefetchEmit> emits;
    Interpreter::run(prog.kernels.at(k), ctx, &emits);
    return emits;
}

TEST(ConvertTest, Fig4ProducesThreeEventChain)
{
    Fig4Loop loop;
    PassResult res = convertSoftwarePrefetches(loop.ir);
    ASSERT_TRUE(res.ok) << res.failureReason;
    // Trigger on A, data events for A_pf and B_pf.
    ASSERT_EQ(res.program.kernels.size(), 3u);
    ASSERT_GE(res.program.filters.size(), 1u);
    EXPECT_EQ(res.program.filters[0].name, "A");
    EXPECT_EQ(res.program.filters[0].base, loop.baseA);
    EXPECT_EQ(res.program.filters[0].onLoadLocal, 0);
    EXPECT_TRUE(res.program.filters[0].timeSource);
}

TEST(ConvertTest, Fig4GeneratedCodeComputesRightAddresses)
{
    Fig4Loop loop;
    PassResult res = convertSoftwarePrefetches(loop.ir);
    ASSERT_TRUE(res.ok);

    // Trigger event: core load of A[10] -> prefetch.cb &A[10+dist].
    auto e0 = execKernel(res.program, 0, loop.baseA + 10 * 8, 0, false);
    ASSERT_EQ(e0.size(), 1u);
    EXPECT_EQ(e0[0].vaddr, loop.baseA + (10 + Fig4Loop::kDist) * 8);
    EXPECT_EQ(e0[0].cbKernel, 1);

    // A_pf data event: observed word 7 -> prefetch.cb &B[7].
    auto e1 = execKernel(res.program, 1, e0[0].vaddr, 7, true);
    ASSERT_EQ(e1.size(), 1u);
    EXPECT_EQ(e1[0].vaddr, loop.baseB + 7 * 8);
    EXPECT_EQ(e1[0].cbKernel, 2);

    // B_pf data event: observed word 5 -> final prefetch &C[5].
    auto e2 = execKernel(res.program, 2, e1[0].vaddr, 5, true);
    ASSERT_EQ(e2.size(), 1u);
    EXPECT_EQ(e2[0].vaddr, loop.baseC + 5 * 8);
    EXPECT_EQ(e2[0].cbKernel, kNoKernel);
}

TEST(ConvertTest, RemovesSwpfRemark)
{
    Fig4Loop loop;
    PassResult res = convertSoftwarePrefetches(loop.ir);
    ASSERT_TRUE(res.ok);
    bool found = false;
    for (const auto &r : res.program.remarks)
        found |= r.find("removed 1 software prefetch") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(ConvertTest, FailsWithoutSwpf)
{
    LoopIR ir;
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("no software prefetches"),
              std::string::npos);
}

TEST(ConvertTest, OpaqueIteratorsFail)
{
    LoopIR ir;
    ir.opaqueIterators = true;
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("opaque iterators"),
              std::string::npos);
}

TEST(ConvertTest, PhiNodeFailsChain)
{
    LoopIR ir;
    IrNode *a = ir.addArray("A", 0x1000, 8, 64);
    (void)a;
    IrNode *p = ir.phi("listptr");
    ir.swpf(ir.bin(IrBin::kAdd, p, ir.cnst(8)));
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("phi"), std::string::npos);
}

TEST(ConvertTest, TwoLoadsIntoOneAddressFail)
{
    LoopIR ir;
    IrNode *a = ir.addArray("A", 0x1000, 8, 64);
    IrNode *b = ir.addArray("B", 0x2000, 8, 64);
    IrNode *c = ir.addArray("C", 0x3000, 8, 64);
    IrNode *x = ir.indVar();
    IrNode *la = ir.loadForSwpf(ir.index(a, x, 8), 8, "A");
    IrNode *lb = ir.loadForSwpf(ir.index(b, x, 8), 8, "B");
    ir.swpf(ir.index(c, ir.bin(IrBin::kAdd, la, lb), 8));
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("more than one loaded value"),
              std::string::npos);
}

TEST(ConvertTest, UnknownBoundsFail)
{
    LoopIR ir;
    IrNode *x = ir.indVar();
    // Base is a bare invariant with no array registered.
    IrNode *base = ir.invariant("p", 0x5000);
    ir.swpf(ir.index(base, x, 8));
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("bounds"), std::string::npos);
}

TEST(ConvertTest, SideEffectCallFails)
{
    LoopIR ir;
    IrNode *a = ir.addArray("A", 0x1000, 8, 64);
    IrNode *x = ir.indVar();
    IrNode *call = ir.call("rand", /*side_effect_free=*/false);
    ir.swpf(ir.index(a, ir.bin(IrBin::kAdd, x, call), 8));
    PassResult res = convertSoftwarePrefetches(ir);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.failureReason.find("side effects"), std::string::npos);
}

TEST(ConvertTest, SharedPrefixDeduplicated)
{
    // Two swpf through the same A load: one trigger event, one data
    // event with two emissions.
    LoopIR ir;
    IrNode *a = ir.addArray("A", 0x1000, 8, 256);
    IrNode *b = ir.addArray("B", 0x4000, 8, 256);
    IrNode *c = ir.addArray("C", 0x8000, 8, 256);
    IrNode *x = ir.indVar();
    IrNode *av = ir.loadForSwpf(
        ir.index(a, ir.bin(IrBin::kAdd, x, ir.cnst(4)), 8), 8, "A_pf");
    ir.swpf(ir.index(b, av, 8));
    ir.swpf(ir.index(c, av, 8));
    PassResult res = convertSoftwarePrefetches(ir);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.program.kernels.size(), 2u);

    auto emits = execKernel(res.program, 1, 0x1000 + 12 * 8, 3, true);
    ASSERT_EQ(emits.size(), 2u);
    EXPECT_EQ(emits[0].vaddr, 0x4000u + 3 * 8);
    EXPECT_EQ(emits[1].vaddr, 0x8000u + 3 * 8);
}

TEST(ConvertTest, PointerTargetPrefetch)
{
    // swpf(*p) where p = load(&head[x]): the final prefetch target is
    // the loaded pointer value itself (linked-structure head).
    LoopIR ir;
    IrNode *heads = ir.addArray("heads", 0x2000, 8, 128);
    IrNode *x = ir.indVar();
    IrNode *p = ir.loadForSwpf(ir.index(heads, x, 8), 8, "head");
    ir.swpf(p);
    PassResult res = convertSoftwarePrefetches(ir);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.program.kernels.size(), 2u);
    auto emits = execKernel(res.program, 1, 0x2000 + 8, 0xBEEF00, true);
    ASSERT_EQ(emits.size(), 1u);
    EXPECT_EQ(emits[0].vaddr, 0xBEEF00u);
}

TEST(PragmaTest, DiscoversStrideIndirectChain)
{
    // Body: k = keys[x]; counts[k]... with no swpf at all.
    LoopIR ir;
    IrNode *keys = ir.addArray("keys", 0x1000, 4, 1024);
    IrNode *counts = ir.addArray("counts", 0x8000, 4, 4096);
    IrNode *x = ir.indVar();
    IrNode *k = ir.load(ir.index(keys, x, 4), 4, "keys");
    (void)ir.load(ir.index(counts, k, 4), 4, "counts");

    PassResult res = generateFromPragma(ir);
    ASSERT_TRUE(res.ok) << res.failureReason;
    ASSERT_EQ(res.program.kernels.size(), 2u);

    // Trigger: derive idx from the observed keys address, advance by the
    // EWMA lookahead (4 in the stub), prefetch &keys[idx+4] with cb.
    auto e0 = execKernel(res.program, 0, 0x1000 + 10 * 4, 0, false);
    ASSERT_EQ(e0.size(), 1u);
    EXPECT_EQ(e0[0].vaddr, 0x1000u + (10 + 4) * 4);
    EXPECT_EQ(e0[0].cbKernel, 1);

    // Data event: observed key 9 -> &counts[9].
    auto e1 = execKernel(res.program, 1, e0[0].vaddr, 9, true);
    ASSERT_EQ(e1.size(), 1u);
    EXPECT_EQ(e1[0].vaddr, 0x8000u + 9 * 4);
}

TEST(PragmaTest, PlainStrideLeftToHardware)
{
    LoopIR ir;
    IrNode *a = ir.addArray("A", 0x1000, 8, 128);
    IrNode *x = ir.indVar();
    (void)ir.load(ir.index(a, x, 8), 8, "A");
    PassResult res = generateFromPragma(ir);
    EXPECT_FALSE(res.ok);
}

TEST(PragmaTest, PhiRootedWalkSkipped)
{
    LoopIR ir;
    IrNode *keys = ir.addArray("keys", 0x1000, 8, 128);
    IrNode *hdrs = ir.addArray("headers", 0x4000, 16, 512);
    IrNode *x = ir.indVar();
    IrNode *k = ir.load(ir.index(keys, x, 8), 8, "keys");
    (void)ir.load(ir.index(hdrs, k, 16), 8, "header");
    IrNode *l = ir.phi("l");
    (void)ir.load(l, 8, "node");

    PassResult res = generateFromPragma(ir);
    ASSERT_TRUE(res.ok); // keys->header converts
    bool skipped = false;
    for (const auto &r : res.program.remarks)
        skipped |= r.find("node") != std::string::npos;
    EXPECT_TRUE(skipped);
}

TEST(PragmaTest, WorksDespiteOpaqueIterators)
{
    LoopIR ir;
    ir.opaqueIterators = true; // PageRank: swpf impossible, pragma fine
    IrNode *dst = ir.addArray("dst", 0x1000, 8, 512);
    IrNode *nd = ir.addArray("nd", 0x8000, 16, 512);
    IrNode *e = ir.indVar();
    IrNode *d = ir.load(ir.index(dst, e, 8), 8, "dst");
    (void)ir.load(ir.index(nd, d, 16), 8, "nd");
    PassResult res = generateFromPragma(ir);
    EXPECT_TRUE(res.ok);
}

TEST(InstallTest, RelocatesKernelIdsAndGlobals)
{
    Fig4Loop loop;
    PassResult res = convertSoftwarePrefetches(loop.ir);
    ASSERT_TRUE(res.ok);

    EventQueue eq;
    GuestMemory gm;
    PpfConfig cfg;
    ProgrammablePrefetcher ppf(eq, gm, cfg);

    // Occupy some kernel/global slots first so relocation is non-trivial.
    KernelBuilder pre("pre");
    pre.halt();
    ppf.kernels().add(pre.build());
    ppf.allocGlobal(0xDEAD);

    auto ids = res.program.installInto(ppf);
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids[0], 1); // after the pre-installed kernel

    // The installed trigger kernel must chain to the *global* id of the
    // second kernel.
    const Kernel &trig = ppf.kernels()[ids[0]];
    bool found_cb = false;
    for (const auto &in : trig.code) {
        if (in.op == Opcode::kPrefetchCb) {
            EXPECT_EQ(in.imm, ids[1]);
            found_cb = true;
        }
    }
    EXPECT_TRUE(found_cb);

    // Globals were re-slotted past the pre-allocated one and hold the
    // right values (base addresses).
    bool found_base_a = false;
    for (const auto &g : res.program.globals) {
        if (g.name == "A.base")
            found_base_a = true;
    }
    EXPECT_TRUE(found_base_a);
    EXPECT_EQ(ppf.global(0), 0xDEADu);

    // Filters installed with relocated kernel ids.
    ASSERT_GE(ppf.filters().size(), 1u);
    EXPECT_EQ(ppf.filters()[0].onLoad, ids[0]);
}

TEST(InstallTest, CodeFitsInstructionCacheBudget)
{
    Fig4Loop loop;
    PassResult res = convertSoftwarePrefetches(loop.ir);
    ASSERT_TRUE(res.ok);
    // The paper measures <= 1 KB of PPU code per application.
    EXPECT_LE(res.program.codeBytes(), 1024u);
}

} // namespace
} // namespace epf

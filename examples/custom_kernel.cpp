/**
 * @file
 * Authoring custom prefetch kernels for a new data structure.
 *
 * The paper's API story: a programmer (or compiler) describes events for
 * their own traversal.  Here we build a structure none of the shipped
 * benchmarks use — an array of skip-list-style towers, where each slot
 * points at a chain of nodes — write the event kernels by hand with the
 * KernelBuilder, configure the address filter and a memory-request tag,
 * and run the whole system on it.
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "cpu/core.hpp"
#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "mem/core_port.hpp"
#include "mem/uncore.hpp"
#include "ppf/ppf.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace
{

// Links are guest addresses (0 = null): the PPU kernels read them out
// of fetched lines, so they must live in the guest address space.
struct Node
{
    std::uint64_t value = 0;
    epf::Addr next = 0;
    std::uint64_t pad[6]; // 64 B nodes: one line each
};

struct Tower
{
    epf::Addr head = 0;
    std::uint64_t len = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t towers_n = argc > 1
                                     ? std::strtoull(argv[1], nullptr, 10)
                                     : 65536;
    const unsigned chain = 3;

    // Build the structure: towers_n towers, each with a short chain of
    // scatter-allocated nodes.  Regions are registered first so the
    // chain links can be stored as guest addresses.
    epf::Rng rng(7);
    std::vector<Tower> towers(towers_n);
    std::vector<Node> pool(towers_n * chain);

    epf::EventQueue eq;
    epf::GuestMemory gmem;
    const epf::Addr towers_base = gmem.addRegion(
        "towers", towers.data(), towers.size() * sizeof(Tower));
    const epf::Addr pool_base =
        gmem.addRegion("pool", pool.data(), pool.size() * sizeof(Node));

    std::vector<std::uint32_t> perm(pool.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = perm.size() - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    std::size_t slot = 0;
    for (auto &t : towers) {
        for (unsigned c = 0; c < chain; ++c) {
            const std::uint32_t idx = perm[slot++];
            Node &n = pool[idx];
            n.value = rng.next() & 0xFFFF;
            n.next = t.head;
            t.head = pool_base + idx * sizeof(Node);
            t.len += 1;
        }
    }

    const epf::MemParams mp = epf::MemParams::defaults();
    epf::Uncore uncore(eq, gmem, mp, 1);
    epf::CorePort port(eq, gmem, uncore, mp, 0);
    epf::Core core(eq, epf::CoreParams{}, port);

    // ---- Hand-written prefetch kernels ----------------------------
    epf::PpfConfig pcfg;
    epf::ProgrammablePrefetcher ppf(eq, gmem, pcfg);
    unsigned g_towers = ppf.allocGlobal(towers_base);

    // Node fills chase the next pointer via a memory-request tag.
    epf::KernelBuilder knode("on_node_prefetch");
    {
        auto done = knode.newLabel();
        knode.vaddr(1)
            .ldLine(2, 1, 8) // node->next
            .li(3, 0)
            .beq(2, 3, done);
        knode.prefetchTag(2, 0); // patched below
        knode.bind(done).halt();
    }
    epf::KernelId k_node = ppf.kernels().add(knode.build());
    std::int32_t tag_node = ppf.registerTag(k_node);
    for (auto &in : ppf.kernels().mutableKernel(k_node).code) {
        if (in.op == epf::Opcode::kPrefetchTag)
            in.imm = tag_node;
    }

    // Tower fills start the walk at the head pointer.
    epf::KernelBuilder ktower("on_tower_prefetch");
    {
        auto done = ktower.newLabel();
        ktower.vaddr(1).ldLine(2, 1, 0).li(3, 0).beq(2, 3, done)
            .prefetchTag(2, tag_node).bind(done).halt();
    }
    epf::KernelId k_tower = ppf.kernels().add(ktower.build());

    // Loads of the tower array look ahead with the EWMA distance.
    epf::KernelBuilder kload("on_towers_load");
    kload.vaddr(1)
        .gread(2, g_towers)
        .sub(1, 1, 2)
        .shri(1, 1, 4) // 16-byte towers
        .lookahead(3, 0)
        .add(1, 1, 3)
        .shli(1, 1, 4)
        .add(1, 1, 2)
        .prefetchCb(1, k_tower)
        .halt();
    epf::KernelId k_load = ppf.kernels().add(kload.build());

    epf::FilterEntry fe;
    fe.name = "towers";
    fe.base = towers_base;
    fe.limit = fe.base + towers.size() * sizeof(Tower);
    fe.onLoad = k_load;
    fe.timeSource = true;
    fe.timedStart = true;
    ppf.addFilter(fe);
    epf::FilterEntry pe;
    pe.name = "pool";
    pe.base = pool_base;
    pe.limit = pe.base + pool.size() * sizeof(Node);
    pe.timedEnd = true;
    ppf.addFilter(pe);

    std::cout << "PPU kernels:\n";
    std::cout << epf::disassemble(ppf.kernels()[k_load]);
    std::cout << epf::disassemble(ppf.kernels()[k_tower]);
    std::cout << epf::disassemble(ppf.kernels()[k_node]) << "\n";

    // ---- The main-core traversal ----------------------------------
    auto node_at = [&](epf::Addr a) -> const Node & {
        return pool[(a - pool_base) / sizeof(Node)];
    };
    auto traverse = [&](bool) -> epf::Generator<epf::MicroOp> {
        epf::OpFactory f;
        for (std::size_t i = 0; i < towers.size(); ++i) {
            epf::ValueId v_t;
            co_yield f.load(towers_base + i * sizeof(Tower), 1, v_t);
            epf::ValueId prev = v_t;
            for (epf::Addr n = towers[i].head; n != 0;
                 n = node_at(n).next) {
                epf::ValueId v_n;
                co_yield f.load(n, 2, v_n, prev);
                co_yield epf::OpFactory::workDep(2, v_n);
                prev = v_n;
            }
        }
    };

    auto run = [&](bool with_ppf) {
        if (with_ppf) {
            port.setListener(&ppf);
            port.setPrefetchSource(&ppf);
            ppf.setKick([&port] { port.kickPrefetcher(); });
        }
        bool done = false;
        core.run(traverse(false), [&] { done = true; });
        while (!eq.empty())
            eq.runOne();
        return core.stats().cycles;
    };

    std::uint64_t base_cycles = run(false);
    std::uint64_t base_delta = base_cycles;
    std::uint64_t ppf_cycles = run(true) - base_cycles;
    std::cout << "no prefetch : " << base_delta << " cycles\n";
    std::cout << "custom PPF  : " << ppf_cycles << " cycles  ("
              << static_cast<double>(base_delta) /
                     static_cast<double>(ppf_cycles)
              << "x)\n";
    return 0;
}

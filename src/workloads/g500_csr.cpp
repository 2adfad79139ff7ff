#include "workloads/g500_csr.hpp"

#include "isa/builder.hpp"
#include "sim/rng.hpp"

namespace epf
{

G500CsrWorkload::G500CsrWorkload(const WorkloadScale &scale,
                                 unsigned graph_scale, unsigned edgefactor)
    : graphScale_(graph_scale), edgeFactor_(edgefactor)
{
    // The workload scale knob shrinks the graph scale (log2 vertices).
    if (scale.factor < 0.5 && graphScale_ > 12)
        graphScale_ -= 2;
    if (scale.factor < 0.15 && graphScale_ > 12)
        graphScale_ -= 1;
}

void
G500CsrWorkload::setup(GuestMemory &mem, std::uint64_t seed)
{
    attach(mem);
    Rng rng(seed);
    n_ = std::uint32_t{1} << graphScale_;
    EdgeList edges = rmatEdges(graphScale_, edgeFactor_, rng);
    Csr g = buildCsr(n_, edges, /*symmetrise=*/true);
    rowStart_ = std::move(g.rowStart);
    dest_ = std::move(g.dest);
    m_ = dest_.size();

    parent_.assign(n_, kUnvisited);
    queue_.assign(n_, 0);

    // Root: the first vertex with non-trivial degree (Graph500 samples
    // roots with edges).
    root_ = 0;
    for (std::uint32_t v = 0; v < n_; ++v) {
        if (rowStart_[v + 1] - rowStart_[v] >= 2) {
            root_ = v;
            break;
        }
    }

    mem.addRegion("g500.rowstart", rowStart_.data(),
                  rowStart_.size() * sizeof(std::uint64_t));
    mem.addRegion("g500.dest", dest_.data(),
                  dest_.size() * sizeof(std::uint64_t));
    mem.addRegion("g500.parent", parent_.data(),
                  parent_.size() * sizeof(std::uint64_t));
    mem.addRegion("g500.queue", queue_.data(),
                  queue_.size() * sizeof(std::uint64_t));
}

Generator<MicroOp>
G500CsrWorkload::trace(bool with_swpf)
{
    OpFactory f;

    std::uint64_t qhead = 0, qtail = 0;
    queue_[qtail++] = root_;
    parent_[root_] = root_;
    visited_ = 1;

    while (qhead < qtail) {
        if (with_swpf && qhead + kSwpfDistQ < qtail) {
            // swpf(&rowStart[queue[qhead+dist]])
            ValueId v_q2;
            co_yield f.load(ga(&queue_[qhead + kSwpfDistQ]), 1, v_q2);
            ValueId v_a2;
            co_yield f.workVal(1, v_a2, v_q2);
            co_yield OpFactory::swpf(
                ga(&rowStart_[queue_[qhead + kSwpfDistQ]]), v_a2);
        }

        ValueId v_q;
        co_yield f.load(ga(&queue_[qhead]), 2, v_q);
        const std::uint64_t v = queue_[qhead++];

        ValueId v_s;
        co_yield f.load(ga(&rowStart_[v]), 3, v_s, v_q);
        ValueId v_e;
        co_yield f.load(ga(&rowStart_[v + 1]), 3, v_e, v_q);

        const std::uint64_t start = rowStart_[v];
        const std::uint64_t end = rowStart_[v + 1];
        for (std::uint64_t e = start; e < end; ++e) {
            if (with_swpf && e + kSwpfDistE < end) {
                // swpf(&parent[dest[e+dist]])
                ValueId v_d2;
                co_yield f.load(ga(&dest_[e + kSwpfDistE]), 4, v_d2);
                ValueId v_a2;
                co_yield f.workVal(1, v_a2, v_d2);
                co_yield OpFactory::swpf(
                    ga(&parent_[dest_[e + kSwpfDistE]]), v_a2);
            }
            ValueId v_d;
            co_yield f.load(ga(&dest_[e]), 5, v_d, v_s);
            const std::uint64_t w = dest_[e];
            ValueId v_p;
            co_yield f.load(ga(&parent_[w]), 6, v_p, v_d);
            co_yield OpFactory::workDep(2, v_p);
            const bool unvisited = parent_[w] == kUnvisited;
            // The visited check depends on the gathered parent entry; a
            // last-outcome predictor misses whenever it flips.
            if (unvisited != prevUnvisited_) {
                prevUnvisited_ = unvisited;
                co_yield OpFactory::branchMiss(v_p);
            }
            if (unvisited) {
                parent_[w] = v;
                ++visited_;
                co_yield OpFactory::store(ga(&parent_[w]), 7, v_p);
                queue_[qtail] = w;
                co_yield OpFactory::store(ga(&queue_[qtail]), 8, v_p);
                ++qtail;
            }
        }
        // Edge-loop exit mispredicts when the degree changes.
        const std::uint64_t deg = end - start;
        if (deg != prevDegree_) {
            prevDegree_ = deg;
            co_yield OpFactory::branchMiss(v_e);
        }
    }
}

void
G500CsrWorkload::programManual(ProgrammablePrefetcher &ppf)
{
    const Addr q_base = ga(queue_.data());
    const Addr row_base = ga(rowStart_.data());
    const Addr dest_base = ga(dest_.data());
    const Addr par_base = ga(parent_.data());

    const unsigned g_q = ppf.allocGlobal(q_base);
    const unsigned g_row = ppf.allocGlobal(row_base);
    const unsigned g_dest = ppf.allocGlobal(dest_base);
    const unsigned g_par = ppf.allocGlobal(par_base);

    // on_edges_prefetch (tag kernel): an edge line arrived; gather the
    // visited/parent entry of each of its eight targets.
    KernelBuilder kedge("on_edges_prefetch");
    {
        KernelBuilder::Label loop = kedge.newLabel();
        kedge.li(1, 0)         // byte offset in line
            .gread(2, g_par)
            .li(3, kLineBytes)
            .bind(loop)
            .ldLine(4, 1, 0)   // edge target
            .shli(4, 4, 3)
            .add(4, 4, 2)
            .prefetch(4)
            .addi(1, 1, 8)
            .blt(1, 3, loop)
            .halt();
    }
    KernelId k_edge = ppf.kernels().add(kedge.build());
    std::int32_t tag_edges = ppf.registerTag(k_edge);

    // on_vertex_prefetch: row bounds arrived; prefetch the data-
    // dependent range of edge lines (clamped), tagging them so their
    // fills gather parents.  This loop over a loaded range is exactly
    // what the compiler passes cannot generate (Section 7.1).
    KernelBuilder kvtx("on_vertex_prefetch");
    {
        KernelBuilder::Label clamp_lo = kvtx.newLabel();
        KernelBuilder::Label clamp_hi = kvtx.newLabel();
        KernelBuilder::Label loop = kvtx.newLabel();
        kvtx.vaddr(1)
            .ldLine(2, 1, 0)  // start index
            .ldLine(3, 1, 8)  // end index (same line for 7 of 8 vertices)
            .sub(4, 3, 2)     // edge count
            .li(5, 1)
            .bge(4, 5, clamp_lo)
            .mov(4, 5)
            .bind(clamp_lo)
            .li(5, kMaxEdgeLines * 8)
            .blt(4, 5, clamp_hi)
            .mov(4, 5)
            .bind(clamp_hi)
            // r6 = &dest[start], r4 = end byte address
            .gread(6, g_dest)
            .shli(2, 2, 3)
            .add(6, 6, 2)
            .shli(4, 4, 3)
            .add(4, 6, 4)
            .bind(loop)
            .prefetchTag(6, tag_edges)
            .addi(6, 6, kLineBytes)
            .blt(6, 4, loop)
            .halt();
    }
    KernelId k_vtx = ppf.kernels().add(kvtx.build());

    // on_queue_prefetch: a future queue entry arrived; fetch its row.
    KernelBuilder kqpf("on_queue_prefetch");
    kqpf.vaddr(1)
        .ldLine(2, 1, 0)
        .shli(2, 2, 3)
        .gread(3, g_row)
        .add(2, 2, 3)
        .prefetchCb(2, k_vtx)
        .halt();
    KernelId k_qpf = ppf.kernels().add(kqpf.build());

    // on_queue_load: EWMA lookahead into the FIFO queue.
    KernelBuilder kql("on_queue_load");
    kql.vaddr(1)
        .gread(2, g_q)
        .sub(1, 1, 2)
        .shri(1, 1, 3)
        .lookahead(3, 0)
        .add(1, 1, 3)
        .shli(1, 1, 3)
        .add(1, 1, 2)
        .prefetchCb(1, k_qpf)
        .halt();
    KernelId k_ql = ppf.kernels().add(kql.build());

    FilterEntry fq;
    fq.name = "queue";
    fq.base = q_base;
    fq.limit = q_base + static_cast<std::uint64_t>(n_) * 8;
    fq.onLoad = k_ql;
    fq.timeSource = true;
    fq.timedStart = true;
    ppf.addFilter(fq);

    // Time the first hop of the chain (queue -> vertex row bounds): the
    // full chain's latency includes its own queueing, which would feed
    // back into ever-larger lookahead and thrash the L1.
    FilterEntry fv;
    fv.name = "rowstart";
    fv.base = row_base;
    fv.limit = row_base + (static_cast<std::uint64_t>(n_) + 1) * 8;
    fv.timedEnd = true;
    ppf.addFilter(fv);

    (void)g_q;
}

std::vector<std::shared_ptr<LoopIR>>
G500CsrWorkload::buildIR()
{
    // Outer loop: over the FIFO queue.
    auto outer = std::make_shared<LoopIR>();
    {
        IrNode *q_b = outer->addArray("queue", ga(queue_.data()), 8, n_);
        IrNode *row_b = outer->addArray("rowstart", ga(rowStart_.data()),
                                        8, n_ + 1);
        IrNode *dest_b =
            outer->addArray("dest", ga(dest_.data()), 8, m_);
        IrNode *par_b =
            outer->addArray("parent", ga(parent_.data()), 8, n_);
        IrNode *x = outer->indVar();

        IrNode *qv = outer->load(outer->index(q_b, x, 8), 8, "queue");
        (void)outer->load(outer->index(row_b, qv, 8), 8, "rowstart");

        // swpf(&rowStart[queue[x+8]]) plus "first N" edge/parent
        // prefetches via nested dereferences (fixed N — the data-
        // dependent range cannot be expressed, Section 7.1).
        IrNode *q2 = outer->loadForSwpf(
            outer->index(q_b,
                         outer->bin(IrBin::kAdd, x,
                                    outer->cnst(kSwpfDistQ)),
                         8),
            8, "queue_pf");
        IrNode *row_addr = outer->index(row_b, q2, 8);
        outer->swpf(row_addr);
        IrNode *s = outer->loadForSwpf(row_addr, 8, "rowstart_pf");
        // First two lines of edges.
        IrNode *edge0 = outer->index(dest_b, s, 8);
        outer->swpf(edge0);
        outer->swpf(outer->bin(IrBin::kAdd, edge0, outer->cnst(64)));
        // Parent of the first edge.
        IrNode *d0 = outer->loadForSwpf(edge0, 8, "dest_pf");
        outer->swpf(outer->index(par_b, d0, 8));
    }

    // Inner loop: over the edge array.
    auto inner = std::make_shared<LoopIR>();
    {
        IrNode *dest_b = inner->addArray("dest", ga(dest_.data()), 8, m_);
        IrNode *par_b =
            inner->addArray("parent", ga(parent_.data()), 8, n_);
        IrNode *e = inner->indVar();
        IrNode *d = inner->load(inner->index(dest_b, e, 8), 8, "dest");
        (void)inner->load(inner->index(par_b, d, 8), 8, "parent");

        IrNode *d2 = inner->loadForSwpf(
            inner->index(dest_b,
                         inner->bin(IrBin::kAdd, e,
                                    inner->cnst(kSwpfDistE)),
                         8),
            8, "dest_pf");
        inner->swpf(inner->index(par_b, d2, 8));
    }

    return {outer, inner};
}

std::uint64_t
G500CsrWorkload::checksum() const
{
    std::uint64_t x = visited_;
    for (std::uint64_t p : parent_)
        x = x * 31 + (p == kUnvisited ? 7 : p);
    return x;
}

} // namespace epf

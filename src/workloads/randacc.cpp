#include "workloads/randacc.hpp"

#include "isa/builder.hpp"
#include "sim/rng.hpp"

namespace epf
{

namespace
{

constexpr std::uint64_t kPoly = 7;

} // namespace

RandAccWorkload::RandAccWorkload(const WorkloadScale &scale)
{
    tableEntries_ = std::uint64_t{1} << 22; // 32 MB
    updates_ = scale.scaled(std::uint64_t{1} << 20);
    // Keep the batch count whole.
    updates_ = (updates_ / kBatch) * kBatch;
}

std::uint64_t
RandAccWorkload::lfsrNext(std::uint64_t r) const
{
    return (r << 1) ^ (static_cast<std::int64_t>(r) < 0 ? kPoly : 0);
}

void
RandAccWorkload::setup(GuestMemory &mem, std::uint64_t seed)
{
    attach(mem);
    seed_ = seed;
    // Reserve and append so each entry is written once: assign(n, 0)
    // would zero-fill the 32 MiB table before the identity pass.
    table_.clear();
    table_.reserve(tableEntries_);
    for (std::uint64_t i = 0; i < tableEntries_; ++i)
        table_.push_back(i);
    ran_.assign(kBatch, 0);
    for (unsigned j = 0; j < kBatch; ++j)
        ran_[j] = splitmix64(seed ^ (j + 1));

    mem.addRegion("randacc.table", table_.data(),
                  table_.size() * sizeof(std::uint64_t));
    mem.addRegion("randacc.ran", ran_.data(),
                  ran_.size() * sizeof(std::uint64_t));
}

Generator<MicroOp>
RandAccWorkload::trace(bool with_swpf)
{
    return shardTrace(0, 1, with_swpf);
}

Generator<MicroOp>
RandAccWorkload::shardTrace(unsigned shard, unsigned shards,
                            bool with_swpf)
{
    // Stream partition: contiguous [jlo, jhi) of the kBatch LFSR
    // streams.  With one shard this is [0, kBatch) — the original
    // serial trace, op for op.
    const unsigned jlo = shard * kBatch / shards;
    const unsigned jhi = (shard + 1) * kBatch / shards;
    const unsigned span = jhi - jlo;

    OpFactory f;
    const std::uint64_t mask = tableEntries_ - 1;
    const std::uint64_t batches = updates_ / kBatch;

    for (std::uint64_t b = 0; b < batches; ++b) {
        // Phase 1: advance this shard's LFSR streams (shift, sign test,
        // xor, plus loop bookkeeping — as in the HPCC source).  The
        // host-side update sits directly before its store's yield: the
        // value must become visible exactly when the store op is
        // fetched, which is the instant a trace replay patches the
        // recorded payload back (the PPU kernels read ran_[] while the
        // batch is in flight).
        for (unsigned j = jlo; j < jhi; ++j) {
            co_yield OpFactory::work(6);
            ran_[j] = lfsrNext(ran_[j]);
            co_yield OpFactory::store(ga(&ran_[j]), 0);
        }
        // Phase 2: apply the updates to the big table.
        for (unsigned j = jlo; j < jhi; ++j) {
            if (with_swpf) {
                // swpf(&table[ran[wrap(j+dist)] & mask]): an extra load
                // of the small array, the masking arithmetic, and the
                // prefetch instruction itself.  The lookahead wraps
                // within this shard's stream range ((j+dist)&127 for
                // the full-range serial trace).
                unsigned jj = jlo + (j - jlo + kSwpfDist) % span;
                ValueId v_r2;
                co_yield f.load(ga(&ran_[jj]), 1, v_r2);
                ValueId v_i2;
                co_yield f.workVal(1, v_i2, v_r2);
                co_yield OpFactory::swpf(ga(&table_[ran_[jj] & mask]),
                                         v_i2);
            }
            ValueId v_ran;
            co_yield f.load(ga(&ran_[j]), 2, v_ran);
            ValueId v_idx;
            co_yield f.workVal(2, v_idx, v_ran); // mask + address gen

            const std::uint64_t r = ran_[j];
            const std::uint64_t idx = r & mask;
            ValueId v_old;
            co_yield f.load(ga(&table_[idx]), 3, v_old, v_idx);
            table_[idx] ^= r;
            ValueId v_new;
            co_yield f.workVal(3, v_new, v_old); // xor + loop bookkeeping
            co_yield OpFactory::store(ga(&table_[idx]), 4, v_idx, v_new);
        }
    }
}

void
RandAccWorkload::programManual(ProgrammablePrefetcher &ppf)
{
    const Addr ran_base = ga(ran_.data());
    const Addr tab_base = ga(table_.data());
    const std::uint64_t mask = tableEntries_ - 1;

    const unsigned g_ran = ppf.allocGlobal(ran_base);
    const unsigned g_tab = ppf.allocGlobal(tab_base);
    const unsigned g_mask = ppf.allocGlobal(mask);

    // on_ran_prefetch: the fetched word is an LFSR value; hash it into
    // the table index and prefetch the table line.
    KernelBuilder kpf("on_ran_prefetch");
    kpf.vaddr(1)
        .ldLine(2, 1, 0)
        .gread(3, g_mask)
        .andr(2, 2, 3)
        .shli(2, 2, 3)
        .gread(4, g_tab)
        .add(2, 2, 4)
        .prefetch(2)
        .halt();
    KernelId k_pf = ppf.kernels().add(kpf.build());

    // on_ran_load: look `lookahead` elements ahead in the 128-entry ran
    // array (with wraparound, which only hand-written code knows about)
    // and prefetch it with a callback so the table fetch can chain.
    KernelBuilder kld("on_ran_load");
    kld.vaddr(1)
        .gread(2, g_ran)
        .sub(1, 1, 2)
        .shri(1, 1, 3)
        .lookahead(3, 0)
        .add(1, 1, 3)
        .andi(1, 1, kBatch - 1)
        .shli(1, 1, 3)
        .add(1, 1, 2)
        .prefetchCb(1, k_pf)
        .halt();
    KernelId k_ld = ppf.kernels().add(kld.build());

    FilterEntry fe;
    fe.name = "ran";
    fe.base = ran_base;
    fe.limit = ran_base + kBatch * 8;
    fe.onLoad = k_ld;
    fe.timeSource = true;
    fe.timedStart = true;
    ppf.addFilter(fe);

    FilterEntry te;
    te.name = "table";
    te.base = tab_base;
    te.limit = tab_base + tableEntries_ * 8;
    te.timedEnd = true;
    ppf.addFilter(te);
}

std::vector<std::shared_ptr<LoopIR>>
RandAccWorkload::buildIR()
{
    auto ir = std::make_shared<LoopIR>();
    const std::uint64_t mask = tableEntries_ - 1;

    IrNode *ran_b = ir->addArray("ran", ga(ran_.data()), 8, kBatch);
    IrNode *tab_b =
        ir->addArray("table", ga(table_.data()), 8, tableEntries_);
    IrNode *x = ir->indVar();

    // Loop body: r = ran[x]; table[r & mask] ^= r;
    IrNode *r = ir->load(ir->index(ran_b, x, 8), 8, "ran");
    IrNode *idx =
        ir->bin(IrBin::kAnd, r, ir->invariant("mask", mask));
    (void)ir->load(ir->index(tab_b, idx, 8), 8, "table");

    // swpf(&table[ran[(x+32) & 127] & mask]) — the wraparound lives in
    // the source expression, so conversion keeps it (the pragma pass
    // cannot discover it, as the paper notes).
    IrNode *xn = ir->bin(IrBin::kAnd,
                         ir->bin(IrBin::kAdd, x, ir->cnst(kSwpfDist)),
                         ir->cnst(kBatch - 1));
    IrNode *r2 =
        ir->loadForSwpf(ir->index(ran_b, xn, 8), 8, "ran_pf");
    IrNode *idx2 =
        ir->bin(IrBin::kAnd, r2, ir->invariant("mask", mask));
    ir->swpf(ir->index(tab_b, idx2, 8));

    return {ir};
}

std::uint64_t
RandAccWorkload::checksum() const
{
    std::uint64_t x = 0;
    for (std::uint64_t v : table_)
        x ^= v + (x << 1);
    return x;
}

std::uint64_t
RandAccWorkload::reference(std::uint64_t table_entries,
                           std::uint64_t updates, std::uint64_t seed)
{
    std::vector<std::uint64_t> table(table_entries);
    for (std::uint64_t i = 0; i < table_entries; ++i)
        table[i] = i;
    std::vector<std::uint64_t> ran(kBatch);
    for (unsigned j = 0; j < kBatch; ++j)
        ran[j] = splitmix64(seed ^ (j + 1));

    const std::uint64_t mask = table_entries - 1;
    const std::uint64_t batches = (updates / kBatch);
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (unsigned j = 0; j < kBatch; ++j) {
            ran[j] = (ran[j] << 1) ^
                     (static_cast<std::int64_t>(ran[j]) < 0 ? kPoly : 0);
            table[ran[j] & mask] ^= ran[j];
        }
    }
    std::uint64_t x = 0;
    for (std::uint64_t v : table)
        x ^= v + (x << 1);
    return x;
}

} // namespace epf

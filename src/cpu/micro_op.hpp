/**
 * @file
 * The micro-op vocabulary of the trace-driven core model.
 *
 * A workload's inner loops are expressed as a stream of micro-ops with
 * explicit *value* dependences: a load produces a value id, and any later
 * op whose address (or input) derives from that load names the id in its
 * dependence list.  This is exactly the information an out-of-order core
 * extracts from register dataflow, and is what limits memory-level
 * parallelism for irregular code (the paper's Figure 2).
 */

#ifndef EPF_CPU_MICRO_OP_HPP
#define EPF_CPU_MICRO_OP_HPP

#include <array>
#include <cstdint>
#include <functional>

#include "sim/types.hpp"

namespace epf
{

/** Value id produced by a load or computation (0 = none). */
using ValueId = std::uint32_t;

/** One micro-op of the main-core trace. */
struct MicroOp
{
    enum class Kind : std::uint8_t
    {
        Work,       ///< @ref instrs ALU/control instructions
        Load,       ///< demand load of @ref vaddr
        Store,      ///< demand store to @ref vaddr
        SwPrefetch, ///< software prefetch instruction to @ref vaddr
        PfConfig,   ///< prefetcher-configuration instruction(s)
        /**
         * A *mispredicted* branch.  Correctly predicted branches cost
         * nothing beyond their Work instruction; workloads emit this op
         * only when their modelled predictor would miss.  Dispatch stops
         * at the branch (wrong-path work is squashed anyway), resumes
         * after it resolves — which needs its dependences, i.e. the
         * loaded data it compares — plus a pipeline-refill penalty.
         */
        BranchMiss,
    };

    Kind kind = Kind::Work;
    /** Dispatch cost in dynamic instructions. */
    std::uint32_t instrs = 1;
    /** Target address for Load / Store / SwPrefetch. */
    Addr vaddr = 0;
    /** Stable id of the source-level load/store site (PC proxy). */
    std::int16_t streamId = -1;
    /** Value produced (loads and value-producing work); 0 if none. */
    ValueId produces = 0;
    /** Value dependences that must resolve before issue/completion. */
    std::array<ValueId, 2> deps{{0, 0}};
    /**
     * Action run at dispatch for PfConfig ops.  May mutate prefetcher
     * configuration mid-trace, including the PPF kernel table (adding
     * or patching kernels); the PPF interprets the table's current code
     * on every event, so the next callback-kernel dispatch runs the
     * patched kernel.
     */
    std::function<void()> config;
};

/** Helper for building micro-ops with fresh value ids. */
class OpFactory
{
  public:
    /** Allocate a fresh value id. */
    ValueId freshId() { return nextId_++; }

    /** Plain work: @p instrs instructions, no dependences. */
    static MicroOp
    work(std::uint32_t instrs)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::Work;
        op.instrs = instrs;
        return op;
    }

    /** Work that consumes @p a (and optionally @p b). */
    static MicroOp
    workDep(std::uint32_t instrs, ValueId a, ValueId b = 0)
    {
        MicroOp op = work(instrs);
        op.deps = {a, b};
        return op;
    }

    /** Value-producing work (e.g.\ a hash of a loaded key). */
    MicroOp
    workVal(std::uint32_t instrs, ValueId &out, ValueId a, ValueId b = 0)
    {
        MicroOp op = workDep(instrs, a, b);
        out = freshId();
        op.produces = out;
        return op;
    }

    /** A load producing a fresh value id (returned via @p out). */
    MicroOp
    load(Addr vaddr, std::int16_t stream, ValueId &out, ValueId a = 0,
         ValueId b = 0)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::Load;
        op.vaddr = vaddr;
        op.streamId = stream;
        op.deps = {a, b};
        out = freshId();
        op.produces = out;
        return op;
    }

    /** A load whose value nothing depends on. */
    MicroOp
    loadDiscard(Addr vaddr, std::int16_t stream, ValueId a = 0,
                ValueId b = 0)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::Load;
        op.vaddr = vaddr;
        op.streamId = stream;
        op.deps = {a, b};
        return op;
    }

    /** A store (address may depend on earlier values). */
    static MicroOp
    store(Addr vaddr, std::int16_t stream, ValueId a = 0, ValueId b = 0)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::Store;
        op.vaddr = vaddr;
        op.streamId = stream;
        op.deps = {a, b};
        return op;
    }

    /** A software prefetch instruction. */
    static MicroOp
    swpf(Addr vaddr, ValueId a = 0)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::SwPrefetch;
        op.vaddr = vaddr;
        op.deps = {a, 0};
        return op;
    }

    /** A mispredicted branch resolving on values @p a / @p b. */
    static MicroOp
    branchMiss(ValueId a, ValueId b = 0)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::BranchMiss;
        op.instrs = 1;
        op.deps = {a, b};
        return op;
    }

    /** Prefetcher-configuration op costing @p instrs instructions. */
    static MicroOp
    pfConfig(std::uint32_t instrs, std::function<void()> fn)
    {
        MicroOp op;
        op.kind = MicroOp::Kind::PfConfig;
        op.instrs = instrs;
        op.config = std::move(fn);
        return op;
    }

  private:
    ValueId nextId_ = 1;
};

} // namespace epf

#endif // EPF_CPU_MICRO_OP_HPP

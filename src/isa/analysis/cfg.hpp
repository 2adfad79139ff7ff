/**
 * @file
 * Control-flow graph over a PPU kernel's code.
 *
 * Basic blocks are maximal straight-line instruction runs; block
 * terminators are branches, jumps, halts and statically-proven traps.
 * An edge out of the code range (a wild branch target, or falling past
 * the last instruction) is the interpreter's pc-bounds trap and gets no
 * successor.
 *
 * The CFG is the substrate every verifier pass runs on (reachability,
 * loop detection, def-use dataflow).
 */

#ifndef EPF_ISA_ANALYSIS_CFG_HPP
#define EPF_ISA_ANALYSIS_CFG_HPP

#include <cstdint>
#include <vector>

#include "isa/isa.hpp"

namespace epf::analysis
{

/** How a basic block hands off control. */
enum class BlockExit
{
    /** Falls through or branches to other blocks only. */
    kFlows,
    /** Ends in halt: the event completes here. */
    kHalt,
    /** Ends in an instruction proven to trap every time. */
    kTrap,
};

/** One basic block: instructions [first, last], in code order. */
struct Block
{
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    BlockExit exit = BlockExit::kFlows;
    /** Successor block ids (fall-through first, then taken target). */
    std::vector<std::uint32_t> succs;
    /** Reachable from the entry block. */
    bool reachable = false;
};

/** The control-flow graph of one kernel. */
class Cfg
{
  public:
    /**
     * Build the CFG of @p code.  @p trapAt marks instructions proven to
     * trap unconditionally (they become block terminators with no
     * successors); it must have code.size() entries or be empty.
     */
    explicit Cfg(const std::vector<Instr> &code,
                 const std::vector<std::uint8_t> &trapAt = {});

    const std::vector<Block> &blocks() const { return blocks_; }
    /** True when no cycle is reachable from the entry. */
    bool acyclic() const { return acyclic_; }
    /** Reachable blocks in reverse postorder (entry first). */
    const std::vector<std::uint32_t> &rpo() const { return rpo_; }
    /** Predecessor block ids of reachable blocks. */
    const std::vector<std::uint32_t> &preds(std::uint32_t block) const
    {
        return preds_[block];
    }

    std::size_t size() const { return blocks_.size(); }
    bool empty() const { return blocks_.empty(); }

  private:
    std::vector<Block> blocks_;
    std::vector<std::vector<std::uint32_t>> preds_;
    std::vector<std::uint32_t> rpo_;
    bool acyclic_ = true;
};

/** True for beq/bne/blt/bge. */
bool isCondBranch(Opcode op);

/** True for any control-transfer op (cond branches and jmp). */
bool isBranch(Opcode op);

/** Taken target of the branch at @p pc (relative imm resolved). */
std::int64_t branchTarget(const Instr &in, std::uint32_t pc);

} // namespace epf::analysis

#endif // EPF_ISA_ANALYSIS_CFG_HPP

#include "isa/analysis/cfg.hpp"

#include <algorithm>

namespace epf::analysis
{

bool
isCondBranch(Opcode op)
{
    return op == Opcode::kBeq || op == Opcode::kBne ||
           op == Opcode::kBlt || op == Opcode::kBge;
}

bool
isBranch(Opcode op)
{
    return isCondBranch(op) || op == Opcode::kJmp;
}

std::int64_t
branchTarget(const Instr &in, std::uint32_t pc)
{
    return static_cast<std::int64_t>(pc) + 1 + in.imm;
}

Cfg::Cfg(const std::vector<Instr> &code,
         const std::vector<std::uint8_t> &trapAt)
{
    const auto size = static_cast<std::uint32_t>(code.size());
    if (size == 0)
        return;

    auto traps = [&trapAt](std::uint32_t pc) {
        return !trapAt.empty() && trapAt[pc] != 0;
    };

    // Leaders: the entry, every in-range branch target, and every
    // instruction following a terminator (branch, halt, proven trap).
    std::vector<std::uint8_t> leader(size, 0);
    leader[0] = 1;
    for (std::uint32_t i = 0; i < size; ++i) {
        const Instr &in = code[i];
        const bool terminator =
            isBranch(in.op) || in.op == Opcode::kHalt || traps(i);
        if (terminator && i + 1 < size)
            leader[i + 1] = 1;
        if (isBranch(in.op)) {
            const std::int64_t t = branchTarget(in, i);
            if (t >= 0 && t < static_cast<std::int64_t>(size))
                leader[static_cast<std::uint32_t>(t)] = 1;
        }
    }

    std::vector<std::uint32_t> blockAt(size, 0);
    for (std::uint32_t i = 0; i < size; ++i) {
        if (leader[i]) {
            Block b;
            b.first = i;
            blocks_.push_back(b);
        }
        blockAt[i] = static_cast<std::uint32_t>(blocks_.size() - 1);
        blocks_.back().last = i;
    }

    // Successors.
    for (Block &b : blocks_) {
        const Instr &in = code[b.last];
        if (traps(b.last)) {
            b.exit = BlockExit::kTrap;
            continue;
        }
        if (in.op == Opcode::kHalt) {
            b.exit = BlockExit::kHalt;
            continue;
        }
        // A target outside the code is the pc-bounds trap: no edge.
        auto edge = [&](std::int64_t target) {
            if (target >= 0 && target < static_cast<std::int64_t>(size))
                b.succs.push_back(
                    blockAt[static_cast<std::uint32_t>(target)]);
        };
        if (in.op == Opcode::kJmp) {
            edge(branchTarget(in, b.last));
        } else if (isCondBranch(in.op)) {
            edge(static_cast<std::int64_t>(b.last) + 1); // not taken
            edge(branchTarget(in, b.last));              // taken
        } else {
            edge(static_cast<std::int64_t>(b.last) + 1); // fall through
        }
    }

    // Reachability + DFS (iterative, preorder stack with an expansion
    // marker) producing reverse postorder and back-edge detection.
    preds_.resize(blocks_.size());
    enum : std::uint8_t { kWhite, kGrey, kBlack };
    std::vector<std::uint8_t> color(blocks_.size(), kWhite);
    std::vector<std::uint32_t> postorder;
    struct Frame
    {
        std::uint32_t block;
        std::size_t next; // next successor index to visit
    };
    std::vector<Frame> stack;
    stack.push_back({0, 0});
    color[0] = kGrey;
    blocks_[0].reachable = true;
    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next < blocks_[f.block].succs.size()) {
            const std::uint32_t s = blocks_[f.block].succs[f.next++];
            preds_[s].push_back(f.block);
            if (color[s] == kWhite) {
                color[s] = kGrey;
                blocks_[s].reachable = true;
                stack.push_back({s, 0});
            } else if (color[s] == kGrey) {
                acyclic_ = false; // back edge: a reachable cycle
            }
        } else {
            color[f.block] = kBlack;
            postorder.push_back(f.block);
            stack.pop_back();
        }
    }

    rpo_.assign(postorder.rbegin(), postorder.rend());
}

} // namespace epf::analysis

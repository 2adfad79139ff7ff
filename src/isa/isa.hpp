/**
 * @file
 * The PPU instruction set.
 *
 * The paper's programmable prefetch units are tiny in-order RISC cores
 * (Cortex-M0+ class) with no loads, stores or stack.  Their only inputs
 * are the triggering observation (virtual address, and for prefetch
 * completions the fetched cache line), the prefetcher's global registers,
 * and the EWMA lookahead values; their only side effect is emitting new
 * prefetch requests.  This module defines that ISA; the interpreter in
 * interpreter.hpp executes it at one instruction per PPU cycle.
 */

#ifndef EPF_ISA_ISA_HPP
#define EPF_ISA_ISA_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace epf
{

/** Number of PPU general-purpose registers. */
constexpr unsigned kPpuRegs = 16;

/** Number of shared prefetcher global registers. */
constexpr unsigned kGlobalRegs = 64;

/** Maximum instructions per event (watchdog; a trap terminates events). */
constexpr unsigned kMaxKernelSteps = 4096;

/** PPU opcodes. */
enum class Opcode : std::uint8_t
{
    kHalt,       ///< end of event
    kNop,

    // Constants and moves
    kLi,         ///< rd = imm
    kMov,        ///< rd = rs

    // ALU, register forms
    kAdd,        ///< rd = rs + rt
    kSub,        ///< rd = rs - rt
    kMul,        ///< rd = rs * rt
    kDiv,        ///< rd = rs / rt (signed; traps on rt == 0 and on the
                 ///< overflowing INT64_MIN / -1)
    kAnd,
    kOr,
    kXor,
    kShl,        ///< rd = rs << (rt & 63)
    kShr,        ///< rd = rs >> (rt & 63), logical

    // ALU, immediate forms
    kAddi,       ///< rd = rs + imm
    kMuli,
    kDivi,       ///< traps on imm == 0 and on INT64_MIN / -1
    kAndi,
    kShli,
    kShri,

    // Observation and prefetcher state access
    kVaddr,      ///< rd = triggering virtual address
    kLineBase,   ///< rd = line-aligned base of the observed line
    kLdLine,     ///< rd = 64-bit word of observed line at byte (rs+imm)&56
    kLdLine32,   ///< rd = 32-bit word (zero-extended) at byte (rs+imm)&60
    kGread,      ///< rd = global register [imm]
    kLookahead,  ///< rd = EWMA lookahead for filter entry [imm]

    // Prefetch emission
    kPrefetch,   ///< enqueue prefetch of address in rs
    kPrefetchTag,///< ... with memory-request tag imm
    kPrefetchCb, ///< ... with callback kernel id imm

    // Control flow (relative to the next instruction)
    kBeq,        ///< if (rs == rt) pc += imm
    kBne,
    kBlt,        ///< signed
    kBge,        ///< signed
    kJmp,        ///< pc += imm
};

/** One PPU instruction. */
struct Instr
{
    Opcode op = Opcode::kHalt;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::int64_t imm = 0;
};

/** A prefetch kernel: the code run in response to one event. */
struct Kernel
{
    std::string name;
    std::vector<Instr> code;
};

/** Id of a kernel within a KernelTable. */
using KernelId = std::int32_t;

/** Sentinel for "no kernel". */
constexpr KernelId kNoKernel = -1;

/**
 * The prefetcher's kernel store (backed by the PPUs' shared instruction
 * cache).  The paper measures at most 1 KB of prefetch code per
 * application against a 4 KiB cache; totalBytes() lets tests assert the
 * budget holds.
 */
class KernelTable
{
  public:
    /**
     * Register a kernel; returns its id.  In strict mode (the default)
     * the kernel is verified first — see src/isa/analysis — and a
     * std::invalid_argument carrying the formatted diagnostics is
     * thrown on any error (wild branch target, fall-off-the-end,
     * guaranteed trap, empty kernel).  Callback ids are NOT checked
     * here: the compiler registers kernels with local ids and patches
     * them afterwards; analysis::analyzeTable() covers resolution.
     */
    KernelId add(Kernel k);

    /**
     * Strict verification on add().  Workloads and the compiler keep
     * it on; the ISA fuzzer turns it off for its intentionally-
     * trapping corpus.
     */
    void setStrict(bool strict) { strict_ = strict; }
    bool strict() const { return strict_; }

    const Kernel &operator[](KernelId id) const { return kernels_.at(static_cast<std::size_t>(id)); }

    /**
     * Mutable access (used by the compiler's relocation step and the
     * manual kernels' address patching).
     */
    Kernel &
    mutableKernel(KernelId id)
    {
        return kernels_.at(static_cast<std::size_t>(id));
    }

    bool valid(KernelId id) const
    {
        return id >= 0 && static_cast<std::size_t>(id) < kernels_.size();
    }

    std::size_t size() const { return kernels_.size(); }

    /** Approximate footprint at 4 bytes per instruction. */
    std::size_t
    totalBytes() const
    {
        std::size_t n = 0;
        for (const auto &k : kernels_)
            n += k.code.size() * 4;
        return n;
    }

  private:
    std::vector<Kernel> kernels_;
    bool strict_ = true;
};

} // namespace epf

#endif // EPF_ISA_ISA_HPP

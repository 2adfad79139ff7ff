/**
 * @file
 * Structured diagnostics emitted by the kernel static analyzer.
 *
 * Every finding is a Diag: a severity, the program counter it anchors
 * to (or kNoPc for kernel- and table-wide findings), a stable machine
 * code, and a human-readable message.  The codes are the contract —
 * tests pin warnings by code+pc, tools filter by code — so they never
 * change meaning once shipped; the message text is free to improve.
 */

#ifndef EPF_ISA_ANALYSIS_DIAG_HPP
#define EPF_ISA_ANALYSIS_DIAG_HPP

#include <string>
#include <vector>

namespace epf::analysis
{

/** How bad a finding is. */
enum class Severity
{
    /** The kernel is malformed or provably misbehaves when run. */
    kError,
    /** Legal but suspicious; likely a programming mistake. */
    kWarning,
};

/** Stable machine codes, one per distinct finding. */
enum class DiagCode
{
    // ---- control-flow validity -------------------------------------
    /** A branch/jmp whose taken target lies outside [0, size). */
    kBadBranchTarget,
    /** Execution can fall past the last instruction without a halt. */
    kFallOffEnd,
    /** Kernel has no instructions: running it traps immediately. */
    kEmptyKernel,
    /** Instruction can never execute on any path from entry. */
    kUnreachableCode,
    /** The CFG contains a cycle: worst-case execution is bounded only
     *  by the kMaxKernelSteps watchdog, not by the code itself. */
    kWatchdogLoop,

    // ---- dataflow ---------------------------------------------------
    /** A register is read before any definition on some path (the
     *  hardware zeroes registers at event entry, so this is legal —
     *  but almost always a forgotten initialisation). */
    kUninitRead,
    /** A register assignment no path ever reads before the value is
     *  overwritten or the kernel exits. */
    kDeadAssignment,

    // ---- static trap facts -----------------------------------------
    /** A reachable instruction that traps every time it executes
     *  (divi #0, out-of-range gread/lookahead index, ldline on an
     *  event kind known to carry no line data). */
    kGuaranteedTrap,

    // ---- KernelTable-wide checks -----------------------------------
    /** prefetch.cb names a kernel id the table cannot resolve. */
    kUnresolvedCallback,
    /** The prefetch.cb graph contains a cycle: each fill can trigger
     *  the next kernel unconditionally — an event storm that only the
     *  request-queue capacity throttles. */
    kCallbackCycle,
    /** Total code bytes exceed the paper's 4 KiB instruction store. */
    kCodeBudgetExceeded,
};

/** Stable kebab-case name of @p code (what tools print and tests pin). */
const char *diagCodeName(DiagCode code);

/** Sentinel pc for kernel- and table-wide diagnostics. */
constexpr int kNoPc = -1;

/** One finding. */
struct Diag
{
    Severity severity = Severity::kWarning;
    /** Instruction index the finding anchors to, or kNoPc. */
    int pc = kNoPc;
    DiagCode code = DiagCode::kUnreachableCode;
    std::string message;
    /** Disassembled text of the instruction at pc ("" when the finding
     *  is kernel- or table-wide, or the producer predates it). */
    std::string instrText;

    Diag() = default;
    Diag(Severity sev, int at, DiagCode c, std::string msg,
         std::string instr = {})
        : severity(sev), pc(at), code(c), message(std::move(msg)),
          instrText(std::move(instr))
    {
    }
};

/** "error" / "warning". */
const char *severityName(Severity s);

/** Render as "pc 3: error: [bad-branch-target] ..." (no trailing \n);
 *  with instrText set, the anchor reads "pc 3 (div r1, r1, r2): ...". */
std::string formatDiag(const Diag &d);

/** True if any diag in @p diags is an error. */
bool hasErrors(const std::vector<Diag> &diags);

} // namespace epf::analysis

#endif // EPF_ISA_ANALYSIS_DIAG_HPP

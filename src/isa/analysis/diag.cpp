#include "isa/analysis/diag.hpp"

namespace epf::analysis
{

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::kBadBranchTarget: return "bad-branch-target";
      case DiagCode::kFallOffEnd: return "fall-off-end";
      case DiagCode::kEmptyKernel: return "empty-kernel";
      case DiagCode::kUnreachableCode: return "unreachable-code";
      case DiagCode::kWatchdogLoop: return "watchdog-loop";
      case DiagCode::kUninitRead: return "uninit-read";
      case DiagCode::kDeadAssignment: return "dead-assignment";
      case DiagCode::kGuaranteedTrap: return "guaranteed-trap";
      case DiagCode::kUnresolvedCallback: return "unresolved-callback";
      case DiagCode::kCallbackCycle: return "callback-cycle";
      case DiagCode::kCodeBudgetExceeded: return "code-budget-exceeded";
    }
    return "unknown";
}

const char *
severityName(Severity s)
{
    return s == Severity::kError ? "error" : "warning";
}

std::string
formatDiag(const Diag &d)
{
    std::string s;
    if (d.pc != kNoPc) {
        s += "pc ";
        s += std::to_string(d.pc);
        if (!d.instrText.empty()) {
            s += " (";
            s += d.instrText;
            s += ")";
        }
        s += ": ";
    }
    s += severityName(d.severity);
    s += ": [";
    s += diagCodeName(d.code);
    s += "] ";
    s += d.message;
    return s;
}

bool
hasErrors(const std::vector<Diag> &diags)
{
    for (const Diag &d : diags)
        if (d.severity == Severity::kError)
            return true;
    return false;
}

} // namespace epf::analysis

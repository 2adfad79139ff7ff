#include "ppf/lint.hpp"

namespace epf
{
namespace
{

using analysis::KernelContext;

/** Trigger kinds a kernel is reachable through. */
struct Roles
{
    bool demand = false; ///< filter onLoad: no line data
    bool fill = false;   ///< filter onPrefetch, tag binding, prefetch.cb
};

std::vector<Roles>
kernelRoles(const ProgrammablePrefetcher &ppf)
{
    const KernelTable &kt = ppf.kernels();
    std::vector<Roles> roles(kt.size());
    auto mark = [&roles, &kt](KernelId id, bool Roles::*role) {
        if (id >= 0 && kt.valid(id))
            roles[static_cast<std::size_t>(id)].*role = true;
    };

    const FilterTable &ft = ppf.filters();
    for (std::size_t i = 0; i < ft.size(); ++i) {
        const FilterEntry &e = ft[static_cast<int>(i)];
        mark(e.onLoad, &Roles::demand);
        mark(e.onPrefetch, &Roles::fill);
    }
    for (KernelId id : ppf.tagKernels())
        mark(id, &Roles::fill);
    for (std::size_t i = 0; i < kt.size(); ++i)
        for (const Instr &in : kt[static_cast<KernelId>(i)].code)
            if (in.op == Opcode::kPrefetchCb)
                mark(static_cast<KernelId>(in.imm), &Roles::fill);
    return roles;
}

KernelContext
contextFromRoles(const ProgrammablePrefetcher &ppf, const Roles &r)
{
    KernelContext ctx;
    if (r.demand && !r.fill)
        ctx.line = KernelContext::Line::kNever;
    else if (r.fill && !r.demand)
        ctx.line = KernelContext::Line::kAlways;
    // both, or not referenced at all: stay kUnknown
    ctx.lookaheadEntries = static_cast<int>(ppf.filters().size());
    return ctx;
}

} // namespace

analysis::KernelContext
contextFor(const ProgrammablePrefetcher &ppf, KernelId id)
{
    if (!ppf.kernels().valid(id))
        return {};
    return contextFromRoles(
        ppf, kernelRoles(ppf)[static_cast<std::size_t>(id)]);
}

analysis::TableAnalysis
lintPrefetcher(const ProgrammablePrefetcher &ppf)
{
    const std::vector<Roles> roles = kernelRoles(ppf);
    return analysis::analyzeTable(
        ppf.kernels(), [&ppf, &roles](KernelId id) {
            return contextFromRoles(ppf,
                                    roles[static_cast<std::size_t>(id)]);
        });
}

std::string
formatTableDiags(const KernelTable &table, const analysis::TableAnalysis &ta)
{
    std::string out;
    auto name = [&table](KernelId id) {
        const std::string &s = table[id].name;
        return s.empty() ? "#" + std::to_string(id) : s;
    };
    for (std::size_t i = 0; i < ta.kernels.size(); ++i)
        for (const analysis::Diag &d : ta.kernels[i].diags) {
            out += name(static_cast<KernelId>(i));
            out += ": ";
            out += analysis::formatDiag(d);
            out += '\n';
        }
    for (const analysis::Diag &d : ta.tableDiags) {
        out += "table: ";
        out += analysis::formatDiag(d);
        out += '\n';
    }
    return out;
}

} // namespace epf

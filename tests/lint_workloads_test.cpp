/**
 * @file
 * Tier-1 lint of every shipped kernel: the 8 workloads' handwritten
 * kernels (under their exact PPF-derived event contexts) and both
 * compiler passes' generated programs must carry zero errors, and the
 * warning set is pinned — a new warning anywhere fails the build until
 * it is either fixed or explicitly added to the golden list here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compiler/passes.hpp"
#include "compiler/verify.hpp"
#include "ppf/lint.hpp"
#include "sim/event_queue.hpp"
#include "workloads/workload.hpp"

namespace epf
{
namespace
{

/** "workload:kernel:[code]" for every warning; errors fail in place. */
std::vector<std::string>
collectWarnings(const std::string &wl, const KernelTable &table,
                const analysis::TableAnalysis &ta)
{
    std::vector<std::string> warnings;
    auto visit = [&](const std::string &kernel,
                     const std::vector<analysis::Diag> &diags) {
        for (const analysis::Diag &d : diags) {
            const std::string where = wl + ":" + kernel;
            EXPECT_NE(d.severity, analysis::Severity::kError)
                << where << ": " << analysis::formatDiag(d);
            // Every pc-anchored diag carries the disassembled
            // instruction text (kernel- and table-wide ones cannot).
            if (d.pc != analysis::kNoPc) {
                EXPECT_FALSE(d.instrText.empty())
                    << where << ": " << analysis::formatDiag(d);
            }
            warnings.push_back(where + ":[" +
                               analysis::diagCodeName(d.code) + "]");
        }
    };
    for (std::size_t i = 0; i < ta.kernels.size(); ++i)
        visit(table[static_cast<KernelId>(i)].name, ta.kernels[i].diags);
    visit("<table>", ta.tableDiags);
    return warnings;
}

TEST(LintWorkloads, ManualKernelsHaveNoErrorsAndPinnedWarnings)
{
    std::vector<std::string> warnings;
    for (const std::string &name : workloadNames()) {
        WorkloadScale sc;
        sc.factor = 0.02;
        auto wl = makeWorkload(name, sc);
        ASSERT_NE(wl, nullptr) << name;
        GuestMemory gm;
        wl->setup(gm, 42);

        EventQueue eq;
        PpfConfig cfg;
        ProgrammablePrefetcher ppf(eq, gm, cfg);
        wl->programManual(ppf);
        ASSERT_GT(ppf.kernels().size(), 0u) << name;

        const analysis::TableAnalysis ta = lintPrefetcher(ppf);
        const auto w = collectWarnings(name, ppf.kernels(), ta);
        warnings.insert(warnings.end(), w.begin(), w.end());
    }

    // The golden warning set.  G500-CSR's edge walkers contain real
    // loops (bounded dynamically by the vertex degree), so they are
    // watchdog-classified; everything else is warning-free.
    const std::vector<std::string> expected = {
        "G500-CSR:on_edges_prefetch:[watchdog-loop]",
        "G500-CSR:on_vertex_prefetch:[watchdog-loop]",
    };
    std::vector<std::string> got = warnings;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected)
        << "the workload kernel warning set changed; fix the kernel or "
           "re-pin the golden list";
}

TEST(LintWorkloads, CompilerProgramsLintClean)
{
    unsigned programs = 0;
    for (const std::string &name : workloadNames()) {
        WorkloadScale sc;
        sc.factor = 0.02;
        auto wl = makeWorkload(name, sc);
        ASSERT_NE(wl, nullptr) << name;
        GuestMemory gm;
        wl->setup(gm, 42);

        for (const auto &ir : wl->buildIR()) {
            for (const PassResult &res : {convertSoftwarePrefetches(*ir),
                                          generateFromPragma(*ir)}) {
                if (!res.ok)
                    continue;
                ++programs;
                const ProgramVerification pv = verifyProgram(res.program);
                EXPECT_FALSE(pv.hasErrors())
                    << name << ":\n" << pv.format(res.program);
                EXPECT_EQ(pv.diagCount(), 0u)
                    << name << ": generated code must be warning-free\n"
                    << pv.format(res.program);
            }
        }
    }
    EXPECT_GT(programs, 0u) << "no compiled programs were linted";
}

} // namespace
} // namespace epf

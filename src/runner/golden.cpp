#include "runner/golden.hpp"

#include <cstdio>
#include <sstream>

#include "runner/sweep.hpp"
#include "workloads/workload.hpp"

namespace epf
{

const std::vector<Technique> &
goldenTechniques()
{
    static const std::vector<Technique> techs = {
        Technique::kNone,      Technique::kStride,
        Technique::kGhbRegular, Technique::kGhbLarge,
        Technique::kSoftware,  Technique::kPragma,
        Technique::kConverted, Technique::kManual,
        Technique::kManualBlocked,
    };
    return techs;
}

namespace
{

/** Shortest exact decimal form of @p v (17 significant digits). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::vector<GoldenCell>
goldenGrid()
{
    std::vector<GoldenCell> cells;
    for (const auto &wl : workloadNames())
        for (Technique t : goldenTechniques())
            cells.push_back({wl, t});
    return cells;
}

RunConfig
goldenConfig(Technique t)
{
    RunConfig cfg;
    cfg.technique = t;
    cfg.scale.factor = kGoldenScale;
    return cfg;
}

std::string
goldenFileName(const GoldenCell &cell)
{
    return sanitizeFileToken(cell.workload) + "_" +
           sanitizeFileToken(techniqueName(cell.technique)) + ".json";
}

std::string
goldenStatsJson(const GoldenCell &cell, const RunResult &r)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"workload\": \"" << jsonEscape(cell.workload) << "\",\n";
    os << "  \"technique\": \""
       << jsonEscape(techniqueName(cell.technique)) << "\",\n";
    os << "  \"available\": " << (r.available ? "true" : "false") << ",\n";
    if (!r.available) {
        os << "  \"note\": \"" << jsonEscape(r.note) << "\"\n}\n";
        return os.str();
    }
    os << "  \"cycles\": " << r.cycles << ",\n";
    os << "  \"instrs\": " << r.instrs << ",\n";
    os << "  \"ticks\": " << r.ticks << ",\n";
    os << "  \"l1ReadHitRate\": " << fmtDouble(r.l1ReadHitRate) << ",\n";
    os << "  \"l2HitRate\": " << fmtDouble(r.l2HitRate) << ",\n";
    os << "  \"pfUtilisation\": " << fmtDouble(r.pfUtilisation) << ",\n";
    os << "  \"l1PrefetchFills\": " << r.l1PrefetchFills << ",\n";
    os << "  \"dramReads\": " << r.dramReads << ",\n";
    os << "  \"dramWrites\": " << r.dramWrites << ",\n";
    // Checksums exceed the 2^53 range JSON readers keep exact: string.
    os << "  \"checksum\": \"" << r.checksum << "\",\n";
    os << "  \"ppfEventsRun\": " << r.ppfEventsRun << ",\n";
    os << "  \"ppfObservations\": " << r.ppfObservations << ",\n";
    os << "  \"ppuActivity\": [";
    for (std::size_t i = 0; i < r.ppuActivity.size(); ++i)
        os << (i ? ", " : "") << fmtDouble(r.ppuActivity[i]);
    os << "],\n";
    os << "  \"remarks\": [";
    for (std::size_t i = 0; i < r.remarks.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(r.remarks[i]) << "\"";
    os << "],\n";
    os << "  \"detail\": {\n";
    const auto &all = r.detail.all();
    std::size_t i = 0;
    for (const auto &[k, v] : all) {
        os << "    \"" << jsonEscape(k) << "\": " << fmtDouble(v)
           << (++i < all.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return os.str();
}

std::size_t
firstDifferingLine(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    std::size_t line = 0;
    for (;;) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        ++line;
        if (!ga && !gb)
            return 0;
        if (ga != gb || la != lb)
            return line;
    }
}

} // namespace epf

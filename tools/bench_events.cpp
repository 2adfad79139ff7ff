/**
 * @file
 * Interned-stat performance trajectory tool.
 *
 * Times hot-counter updates by name against interned StatRegistry
 * handles and writes a BENCH_events.json summary, regenerated by CI on
 * every push.
 *
 *   ./build/bench_events [out.json]     # default BENCH_events.json
 *   EPF_BENCH_QUICK=1 ./build/bench_events   # CI smoke: fewer reps
 *
 * Schema (BENCH_events/v3): BM_StatHotCounter ns/update by name and by
 * handle plus their speedup (by-name / by-handle).  Both paths update
 * the same counter, so the ratio is pure host speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/stats.hpp"

namespace
{

using namespace epf;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct InternResult
{
    double byNameNs = 0;
    double byHandleNs = 0;
    double speedup = 0;
};

/** Hot-counter update cost: std::map name lookup vs interned handle. */
InternResult
timeIntern(int reps)
{
    StatRegistry reg;
    const std::string name = "core.loads";
    const StatRegistry::StatId id = reg.intern(name);

    auto runByName = [&] { reg.set(name, reg.get(name, 0.0) + 1.0); };
    auto runByHandle = [&] { reg.add(id, 1.0); };
    auto timeOnce = [&](auto runEvent) {
        const double t0 = now();
        for (int i = 0; i < reps; ++i)
            runEvent();
        return (now() - t0) * 1e9 / reps;
    };

    // Interleaved best-of rounds: host frequency drift hits both paths
    // roughly equally, and the ratio is what the trajectory tracks.
    runByName();
    runByHandle(); // warm
    double byName = 1e99, byHandle = 1e99;
    for (int round = 0; round < 4; ++round) {
        byName = std::min(byName, timeOnce(runByName));
        byHandle = std::min(byHandle, timeOnce(runByHandle));
    }

    InternResult r;
    r.byNameNs = byName;
    r.byHandleNs = byHandle;
    r.speedup = byName / byHandle;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out = argc > 1 ? argv[1] : "BENCH_events.json";
    const bool quick = std::getenv("EPF_BENCH_QUICK") != nullptr;
    const int reps = quick ? 50'000 : 2'000'000;

    const InternResult intern = timeIntern(reps);

    std::ofstream os(out, std::ios::trunc);
    os << "{\n  \"schema\": \"BENCH_events/v3\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"benchmarks\": {\n";
    os << "    \"BM_StatHotCounter\": { \"byNameNs\": " << intern.byNameNs
       << ", \"byHandleNs\": " << intern.byHandleNs
       << ", \"speedup\": " << intern.speedup << " }\n";
    os << "  }\n}\n";
    os.close();

    std::cout << "BM_StatHotCounter: by-name " << intern.byNameNs
              << " ns, by-handle " << intern.byHandleNs << " ns ("
              << intern.speedup << "x)\n";
    std::cout << "wrote " << out << "\n";
    return 0;
}

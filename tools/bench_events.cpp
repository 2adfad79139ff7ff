/**
 * @file
 * Event-delivery performance trajectory tool.
 *
 * Times the EventQueue's same-tick delivery paths — per-event schedule()
 * against the pooled scheduleBatch() carrier — in the micro_components
 * form (ns per delivered event), and times hot-counter updates by name
 * against interned StatRegistry handles.  Writes a BENCH_events.json
 * summary — the event-path point of the repo's perf trajectory,
 * regenerated by CI on every push.
 *
 *   ./build/bench_events [out.json]     # default BENCH_events.json
 *   EPF_BENCH_QUICK=1 ./build/bench_events   # CI smoke: fewer reps
 *
 * Schema (BENCH_events/v2): per-benchmark ns/event for per-event and
 * batched delivery plus batchedSpeedup (per-event / batched), and
 * statIntern ns/update by name and by handle plus their speedup.  Both
 * carriers deliver the same callbacks in the same order, so these
 * ratios are pure host speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
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

struct DrainResult
{
    std::string name;
    double perEventNs = 0; ///< ns per event, one schedule() per event
    double batchedNs = 0;  ///< ns per event through scheduleBatch()
    double batchedSpeedup = 0;
};

/**
 * Time a fan-out of @p fanout same-tick events against the queue, per
 * event: @p reps rounds each schedule the fan-out at @p delay ticks and
 * drain the queue.  This is the shape of an MSHR completion storm
 * (fanout ~= merged waiters) and of a PPF emit flush.
 */
DrainResult
timeDrain(const std::string &name, unsigned fanout, Tick delay, int reps)
{
    EventQueue q;
    std::uint64_t sink = 0;

    auto runPerEvent = [&] {
        for (unsigned i = 0; i < fanout; ++i)
            q.scheduleIn(delay, [&sink] { ++sink; });
        q.run();
    };
    auto runBatched = [&] {
        EventQueue::Batch b = q.takeBatch();
        b.reserve(fanout);
        for (unsigned i = 0; i < fanout; ++i)
            b.push_back([&sink] { ++sink; });
        q.scheduleBatch(delay, std::move(b));
        q.run();
    };
    auto timeOnce = [&](auto runEvent) {
        const double t0 = now();
        for (int i = 0; i < reps; ++i)
            runEvent();
        return (now() - t0) * 1e9 / (static_cast<double>(reps) * fanout);
    };

    // Interleaved best-of rounds: host
    // frequency drift hits both paths roughly equally, and the ratio is
    // what the trajectory tracks.
    runPerEvent();
    runBatched(); // warm
    double per = 1e99, bat = 1e99;
    for (int round = 0; round < 4; ++round) {
        per = std::min(per, timeOnce(runPerEvent));
        bat = std::min(bat, timeOnce(runBatched));
    }

    DrainResult r;
    r.name = name;
    r.perEventNs = per;
    r.batchedNs = bat;
    r.batchedSpeedup = per / bat;
    if (sink == 0)
        std::abort(); // keeps the callbacks observable
    return r;
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

    // Fan-out 8 ~ an L1 MSHR completion storm; fan-out 64 ~ a PPF emit
    // flush hitting the request queue.  Delay 1 exercises the calendar
    // wheel, delay 0 the current-tick FIFO ring.
    std::vector<DrainResult> drains;
    drains.push_back(timeDrain("BM_DrainWheelFanout8", 8, 1, reps));
    drains.push_back(timeDrain("BM_DrainWheelFanout64", 64, 1, reps / 4));
    drains.push_back(timeDrain("BM_DrainSameTickFanout8", 8, 0, reps));

    const InternResult intern = timeIntern(reps);

    std::ofstream os(out, std::ios::trunc);
    os << "{\n  \"schema\": \"BENCH_events/v2\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"benchmarks\": {\n";
    for (std::size_t i = 0; i < drains.size(); ++i) {
        const auto &r = drains[i];
        os << "    \"" << r.name << "\": { \"perEventNs\": " << r.perEventNs
           << ", \"batchedNs\": " << r.batchedNs
           << ", \"batchedSpeedup\": " << r.batchedSpeedup << " },\n";
    }
    os << "    \"BM_StatHotCounter\": { \"byNameNs\": " << intern.byNameNs
       << ", \"byHandleNs\": " << intern.byHandleNs
       << ", \"speedup\": " << intern.speedup << " }\n";
    os << "  }\n}\n";
    os.close();

    for (const auto &r : drains)
        std::cout << r.name << ": per-event " << r.perEventNs
                  << " ns/event, batched " << r.batchedNs << " ns/event ("
                  << r.batchedSpeedup << "x)\n";
    std::cout << "BM_StatHotCounter: by-name " << intern.byNameNs
              << " ns, by-handle " << intern.byHandleNs << " ns ("
              << intern.speedup << "x)\n";
    std::cout << "wrote " << out << "\n";
    return 0;
}

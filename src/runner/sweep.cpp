#include "runner/sweep.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace epf
{

namespace
{

/** FNV-1a over the workload name: stable across platforms and runs. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** Expand {workload}/{technique}/{label} in a cell's trace path. */
std::string
expandTracePath(const std::string &pattern, const SweepCell &cell)
{
    std::string out = pattern;
    const std::pair<const char *, std::string> subs[] = {
        {"{workload}", sanitizeFileToken(cell.workload)},
        {"{technique}",
         sanitizeFileToken(techniqueName(cell.config.technique))},
        {"{label}", sanitizeFileToken(cell.label)},
    };
    for (const auto &[key, value] : subs) {
        for (std::size_t at = out.find(key); at != std::string::npos;
             at = out.find(key, at + value.size()))
            out.replace(at, std::string(key).size(), value);
    }
    return out;
}

} // namespace

std::uint64_t
deriveCellSeed(std::uint64_t base, const std::string &workload,
               Technique tech)
{
    std::uint64_t h = splitmix64(base ^ fnv1a(workload));
    return splitmix64(h ^ (static_cast<std::uint64_t>(tech) + 1));
}

std::size_t
SweepEngine::add(std::string workload, RunConfig cfg, std::string label,
                 std::optional<Technique> seedAs)
{
    const Technique seed_tech = seedAs.value_or(cfg.technique);
    cells_.push_back({std::move(workload), std::move(cfg),
                      std::move(label), seed_tech});
    return cells_.size() - 1;
}

std::size_t
SweepEngine::addGrid(const std::vector<std::string> &workloads,
                     const std::vector<Technique> &techniques,
                     const RunConfig &proto, std::optional<Technique> seedAs)
{
    const std::size_t first = cells_.size();
    for (const auto &wl : workloads) {
        for (Technique t : techniques) {
            RunConfig cfg = proto;
            cfg.technique = t;
            add(wl, std::move(cfg), techniqueName(t), seedAs);
        }
    }
    return first;
}

std::vector<SweepOutcome>
SweepEngine::run()
{
    const std::size_t total = cells_.size();

    // Expand capture paths up front, serially: every cell must end up
    // with a distinct file, or concurrent TraceWriters would interleave
    // into the same path.  Collisions (a literal path with no
    // placeholders, or a grid repeating workload x technique under
    // different configs) get a cell-index suffix.
    std::set<std::string> trace_paths;
    for (std::size_t i = 0; i < total; ++i) {
        std::string &path = cells_[i].config.tracePath;
        if (path.empty())
            continue;
        path = expandTracePath(path, cells_[i]);
        while (!trace_paths.insert(path).second)
            path += "." + std::to_string(i);
    }

    unsigned threads = opts_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > total && total > 0)
        threads = static_cast<unsigned>(total);

    // Shared state sits behind a shared_ptr so that a worker wedged in
    // a hung cell (which can only be detached, never killed) keeps a
    // valid view even after run() has returned — it just finds
    // `abandoned` set and discards its result instead of committing.
    struct Shared
    {
        Options opts;
        std::vector<SweepCell> cells;
        std::vector<SweepOutcome> outcomes;
        std::atomic<std::size_t> next{0};
        std::mutex mtx;
        std::condition_variable cv;
        // Everything below is guarded by mtx.
        std::size_t done = 0;
        bool abandoned = false;
        /** Per-worker claimed cell (npos when idle) + claim time. */
        std::vector<std::size_t> inFlight;
        std::vector<std::chrono::steady_clock::time_point> startedAt;
    };
    constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

    auto shared = std::make_shared<Shared>();
    shared->opts = opts_;
    shared->cells = std::move(cells_);
    cells_.clear();
    shared->outcomes.resize(total);
    shared->inFlight.assign(threads, kIdle);
    shared->startedAt.resize(threads);

    auto worker = [shared, total](unsigned self) {
        for (;;) {
            const std::size_t i = shared->next.fetch_add(1);
            if (i >= total)
                return;

            {
                std::lock_guard<std::mutex> lock(shared->mtx);
                if (shared->abandoned)
                    return;
                shared->inFlight[self] = i;
                shared->startedAt[self] = std::chrono::steady_clock::now();
            }

            // Compute into a local outcome; it is committed under the
            // lock only while the sweep is still live.
            SweepOutcome out;
            out.cell = shared->cells[i];
            if (shared->opts.deriveSeeds) {
                out.cell.config.seed = deriveCellSeed(
                    shared->opts.baseSeed, out.cell.workload,
                    out.cell.seedTechnique);
            }

            const auto t0 = std::chrono::steady_clock::now();
            try {
                out.result = shared->opts.runCell
                                 ? shared->opts.runCell(out.cell)
                                 : runExperiment(out.cell.workload,
                                                 out.cell.config);
            } catch (const std::exception &e) {
                out.failed = true;
                out.error = e.what();
            } catch (...) {
                out.failed = true;
                out.error = "unknown exception";
            }
            out.hostSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            {
                std::lock_guard<std::mutex> lock(shared->mtx);
                shared->inFlight[self] = kIdle;
                if (shared->abandoned)
                    return; // the sweep moved on without this result
                shared->outcomes[i] = std::move(out);
                ++shared->done;
                if (shared->opts.progress) {
                    shared->opts.progress(shared->done, total,
                                          shared->outcomes[i]);
                }
            }
            shared->cv.notify_all();
        }
    };

    if (opts_.cellTimeoutSeconds <= 0.0) {
        if (threads <= 1) {
            worker(0);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(threads);
            for (unsigned t = 0; t < threads; ++t)
                pool.emplace_back(worker, t);
            for (auto &th : pool)
                th.join();
        }
        return std::move(shared->outcomes);
    }

    // Watchdog mode: workers always run on their own threads (even at
    // threads == 1) so this thread can time them.
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);

    const auto timeout = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(opts_.cellTimeoutSeconds));

    std::unique_lock<std::mutex> lock(shared->mtx);
    while (shared->done < total) {
        const auto now = std::chrono::steady_clock::now();
        std::size_t hung = kIdle;
        auto wake = now + std::chrono::milliseconds(50);
        for (unsigned w = 0; w < threads; ++w) {
            if (shared->inFlight[w] == kIdle)
                continue;
            const auto deadline = shared->startedAt[w] + timeout;
            if (deadline <= now) {
                hung = shared->inFlight[w];
                break;
            }
            if (deadline < wake)
                wake = deadline;
        }

        if (hung != kIdle) {
            shared->abandoned = true;
            SweepCell cell = shared->cells[hung];
            lock.unlock();
            shared->cv.notify_all();
            // The hung threads cannot be joined; they hold a
            // shared_ptr to the state and exit on their own if the
            // cell ever unwedges.
            for (auto &th : pool)
                th.detach();
            const std::uint64_t seed =
                opts_.deriveSeeds
                    ? deriveCellSeed(opts_.baseSeed, cell.workload,
                                     cell.seedTechnique)
                    : cell.config.seed;
            throw std::runtime_error(
                "sweep cell exceeded the " +
                std::to_string(opts_.cellTimeoutSeconds) +
                "s wall-clock watchdog: workload=" + cell.workload +
                " technique=" + techniqueName(cell.config.technique) +
                (cell.label.empty() ? "" : " label=" + cell.label) +
                " seed=" + std::to_string(seed));
        }
        shared->cv.wait_until(lock, wake);
    }
    lock.unlock();
    for (auto &th : pool)
        th.join();

    return std::move(shared->outcomes);
}

void
SweepEngine::writeJson(std::ostream &os,
                       const std::vector<SweepOutcome> &outcomes,
                       bool detail)
{
    os << "[\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome &o = outcomes[i];
        const RunResult &r = o.result;
        os << "  {\"workload\": \"" << jsonEscape(o.cell.workload)
           << "\", \"technique\": \""
           << jsonEscape(techniqueName(o.cell.config.technique))
           << "\", \"label\": \"" << jsonEscape(o.cell.label)
           << "\", \"seed\": \"" << o.cell.config.seed
           << "\", \"cores\": "
           << (o.cell.config.cores > 0 ? o.cell.config.cores : 1);
        if (!o.cell.config.tracePath.empty())
            os << ", \"trace\": \"" << jsonEscape(o.cell.config.tracePath)
               << "\"";
        if (o.failed) {
            os << ", \"failed\": true, \"error\": \""
               << jsonEscape(o.error) << "\"";
        } else if (!r.available) {
            os << ", \"available\": false, \"note\": \""
               << jsonEscape(r.note) << "\"";
        } else {
            os << ", \"cycles\": " << r.cycles
               << ", \"instrs\": " << r.instrs << ", \"ticks\": " << r.ticks
               << ", \"l1ReadHitRate\": " << r.l1ReadHitRate
               << ", \"l2HitRate\": " << r.l2HitRate
               << ", \"pfUtilisation\": " << r.pfUtilisation
               << ", \"l1PrefetchFills\": " << r.l1PrefetchFills
               << ", \"dramReads\": " << r.dramReads
               << ", \"dramWrites\": " << r.dramWrites
               << ", \"checksum\": \"" << r.checksum << "\"";
            if (o.cell.config.faults.enabled)
                os << ", \"faultsInjected\": " << r.faultsInjected;
            if (!r.ppuActivity.empty()) {
                os << ", \"ppuActivity\": [";
                for (std::size_t p = 0; p < r.ppuActivity.size(); ++p)
                    os << (p ? ", " : "") << r.ppuActivity[p];
                os << "]";
            }
            if (detail) {
                os << ", \"detail\": {";
                bool first = true;
                for (const auto &[k, v] : r.detail.all()) {
                    os << (first ? "" : ", ") << "\"" << jsonEscape(k)
                       << "\": ";
                    writeStatValue(os, v);
                    first = false;
                }
                os << "}";
            }
        }
        os << ", \"hostSeconds\": " << o.hostSeconds << "}"
           << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

std::string
sanitizeFileToken(const std::string &token)
{
    std::string out;
    out.reserve(token.size());
    for (char c : token) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
            c == '_' || c == '-')
            out += c;
        else
            out += '-';
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

unsigned
sweepThreadsFromEnv(unsigned fallback)
{
    if (const char *s = std::getenv("EPF_THREADS")) {
        const long v = std::atol(s);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return fallback;
}

unsigned
sweepCoresFromEnv(unsigned fallback)
{
    if (const char *s = std::getenv("EPF_CORES")) {
        const long v = std::atol(s);
        if (v > 0 && v <= 32)
            return static_cast<unsigned>(v);
    }
    return fallback;
}

FaultConfig
sweepFaultsFromEnv()
{
    if (const char *s = std::getenv("EPF_FAULTS"))
        return parseFaultConfig(s);
    return FaultConfig{};
}

double
sweepCellTimeoutFromEnv(double fallback)
{
    if (const char *s = std::getenv("EPF_CELL_TIMEOUT")) {
        const double v = std::atof(s);
        if (v > 0)
            return v;
    }
    return fallback;
}

} // namespace epf

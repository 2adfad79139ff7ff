/**
 * @file
 * Trace subsystem tests (tier 1): binary format round-trip, corruption
 * detection, capture plumbing, and a fast single-cell capture/replay
 * equivalence check.  The full workload x technique replay matrix runs
 * in tests/trace_replay_test.cpp (tier 2).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "runner/golden.hpp"
#include "runner/sweep.hpp"
#include "sim/rng.hpp"
#include "trace/trace.hpp"
#include "workloads/trace_workload.hpp"

namespace epf
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

MicroOp
op(MicroOp::Kind k, std::uint32_t instrs, Addr addr = 0,
   std::int16_t stream = -1, ValueId produces = 0, ValueId d0 = 0,
   ValueId d1 = 0)
{
    MicroOp o;
    o.kind = k;
    o.instrs = instrs;
    o.vaddr = addr;
    o.streamId = stream;
    o.produces = produces;
    o.deps = {d0, d1};
    return o;
}

/** Serialized stats with a neutral cell label, for equality checks. */
std::string
statsOf(Technique t, const RunResult &r)
{
    return goldenStatsJson({"cell", t}, r);
}

TEST(TraceFormat, RoundTripsEveryField)
{
    std::vector<std::uint64_t> data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = i * 0x0101010101ULL;
    GuestMemory gmem;
    const Addr base = gmem.addRegion("t.data", data.data(),
                                     data.size() * sizeof(std::uint64_t));

    const std::string path = tmpPath("roundtrip.epftrace");
    std::vector<TraceRecord> want;
    {
        TraceWriter w(path, gmem, "G500-CSR", 0.25, 0x1234, true);
        const MicroOp ops[] = {
            op(MicroOp::Kind::Work, 7),
            op(MicroOp::Kind::Load, 1, base + 8, 3, 11),
            op(MicroOp::Kind::Work, 2, 0, -1, 12, 11),
            op(MicroOp::Kind::Store, 1, base + 256, 4, 0, 11, 12),
            op(MicroOp::Kind::SwPrefetch, 1, base + 0x4000, 5), // unmapped
            op(MicroOp::Kind::BranchMiss, 1, 0, -1, 0, 12),
            op(MicroOp::Kind::Load, 1, base, 0),
        };
        Tick tick = 0;
        for (const MicroOp &o : ops) {
            w.onMicroOp(tick, o);
            TraceRecord r;
            r.tick = tick;
            r.kind = o.kind;
            r.instrs = o.instrs;
            r.addr = TraceRecord::hasAddr(o.kind) ? o.vaddr : 0;
            r.streamId = TraceRecord::hasAddr(o.kind) ? o.streamId : -1;
            r.produces = o.produces;
            r.deps = {o.deps[0], o.deps[1]};
            want.push_back(r);
            tick += 5;
        }
        w.finalize(0xFEEDBEEF);
    }

    TraceReader r(path);
    EXPECT_EQ(r.meta().version, kTraceVersion);
    EXPECT_TRUE(r.meta().withSwpf());
    EXPECT_FALSE(r.meta().hasPfConfig());
    EXPECT_EQ(r.meta().seed, 0x1234u);
    EXPECT_DOUBLE_EQ(r.meta().scaleFactor, 0.25);
    EXPECT_EQ(r.meta().sourceWorkload, "G500-CSR");
    EXPECT_EQ(r.meta().workloadChecksum, 0xFEEDBEEFu);
    EXPECT_EQ(r.meta().recordCount, want.size());
    ASSERT_EQ(r.meta().regions.size(), 1u);
    EXPECT_EQ(r.meta().regions[0].name, "t.data");
    EXPECT_EQ(r.meta().regions[0].base, base);

    TraceRecord got;
    for (const TraceRecord &w_rec : want) {
        ASSERT_TRUE(r.next(got));
        EXPECT_EQ(got.tick, w_rec.tick);
        EXPECT_EQ(got.kind, w_rec.kind);
        EXPECT_EQ(got.instrs, w_rec.instrs);
        EXPECT_EQ(got.addr, w_rec.addr);
        EXPECT_EQ(got.streamId, w_rec.streamId);
        EXPECT_EQ(got.produces, w_rec.produces);
        EXPECT_EQ(got.deps, w_rec.deps);
    }
    EXPECT_FALSE(r.next(got));

    // rewind() restarts decoding from the first record.
    r.rewind();
    ASSERT_TRUE(r.next(got));
    EXPECT_EQ(got.kind, MicroOp::Kind::Work);
    EXPECT_EQ(got.instrs, 7u);
}

TEST(TraceFormat, PayloadCapturesLineAndDedups)
{
    std::vector<std::uint64_t> data(16, 0);
    GuestMemory gmem;
    const Addr base =
        gmem.addRegion("t.data", data.data(), data.size() * 8);

    const std::string path = tmpPath("payload.epftrace");
    {
        TraceWriter w(path, gmem, "", 1.0, 1, false);
        data[0] = 0xAA;
        w.onMicroOp(0, op(MicroOp::Kind::Store, 1, base, 0));
        // Same line, unchanged content: deduped, no payload.
        w.onMicroOp(5, op(MicroOp::Kind::Load, 1, base + 8, 1, 9));
        // Same line, changed content: fresh payload.
        data[1] = 0xBB;
        w.onMicroOp(10, op(MicroOp::Kind::Store, 1, base + 8, 0));
        w.finalize(0);
    }

    TraceReader r(path);
    TraceRecord rec;
    ASSERT_TRUE(r.next(rec));
    ASSERT_EQ(rec.payloadLen, kLineBytes);
    std::uint64_t v0;
    std::memcpy(&v0, rec.payload.data(), 8);
    EXPECT_EQ(v0, 0xAAu);
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.payloadLen, 0u); // deduped
    ASSERT_TRUE(r.next(rec));
    ASSERT_EQ(rec.payloadLen, kLineBytes);
    std::uint64_t v1;
    std::memcpy(&v1, rec.payload.data() + 8, 8);
    EXPECT_EQ(v1, 0xBBu);
}

TEST(TraceFormat, PayloadClipsToRegionEnd)
{
    // A region ending mid-line: the payload must stop at the boundary.
    std::vector<std::uint64_t> data(3, 0x55); // 24 bytes, line is 64
    GuestMemory gmem;
    const Addr base = gmem.addRegion("t.small", data.data(), 24);

    const std::string path = tmpPath("clip.epftrace");
    {
        TraceWriter w(path, gmem, "", 1.0, 1, false);
        w.onMicroOp(0, op(MicroOp::Kind::Store, 1, base + 16, 0));
        w.finalize(0);
    }
    TraceReader r(path);
    TraceRecord rec;
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.payloadLen, 24u);
}

TEST(TraceFormat, DetectsCorruptionAndTruncation)
{
    std::vector<std::uint64_t> data(8, 1);
    GuestMemory gmem;
    const Addr base = gmem.addRegion("t.data", data.data(), 64);
    const std::string path = tmpPath("corrupt.epftrace");
    {
        TraceWriter w(path, gmem, "RandAcc", 1.0, 1, false);
        for (int i = 0; i < 50; ++i)
            w.onMicroOp(i * 5, op(MicroOp::Kind::Load, 1, base, 1));
        w.finalize(42);
    }

    std::vector<char> bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }

    // Flip one record byte: checksum mismatch.
    {
        auto mangled = bytes;
        mangled.back() ^= 0x40;
        const std::string p2 = tmpPath("corrupt2.epftrace");
        std::ofstream(p2, std::ios::binary)
            .write(mangled.data(), static_cast<long>(mangled.size()));
        EXPECT_THROW(TraceReader{p2}, std::runtime_error);
    }
    // Drop trailing bytes: truncation.
    {
        const std::string p3 = tmpPath("corrupt3.epftrace");
        std::ofstream(p3, std::ios::binary)
            .write(bytes.data(), static_cast<long>(bytes.size() - 7));
        EXPECT_THROW(TraceReader{p3}, std::runtime_error);
    }
    // Bad magic.
    {
        auto mangled = bytes;
        mangled[0] = 'X';
        const std::string p4 = tmpPath("corrupt4.epftrace");
        std::ofstream(p4, std::ios::binary)
            .write(mangled.data(), static_cast<long>(mangled.size()));
        EXPECT_THROW(TraceReader{p4}, std::runtime_error);
    }
    EXPECT_THROW(TraceReader{tmpPath("missing.epftrace")},
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hostile-input hardening.  The fixed header layout these tests patch:
//   0 magic[8], 8 version, 12 flags, 16 seed, 24 scaleFactor bits,
//   32 recordCount, 40 streamChecksum, 48 workloadChecksum, 56 finalTick,
//   64 u16 source-name len + bytes, then u32 region count and per-region
//   {u16 name len + bytes, u64 base, u64 size}.
// ---------------------------------------------------------------------------

constexpr std::size_t kOffScale = 24;
constexpr std::size_t kOffRecCount = 32;
constexpr std::size_t kOffStreamSum = 40;

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::vector<char> raw{std::istreambuf_iterator<char>(is), {}};
    return {raw.begin(), raw.end()};
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<long>(bytes.size()));
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Where the record stream starts, recomputed from the header strings. */
std::size_t
recordsBeginOf(const TraceMeta &m)
{
    std::size_t at = 64 + 2 + m.sourceWorkload.size() + 4;
    for (const auto &r : m.regions)
        at += 2 + r.name.size() + 16;
    return at;
}

std::uint64_t
fnvOf(const std::vector<std::uint8_t> &bytes, std::size_t from)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = from; i < bytes.size(); ++i) {
        h ^= bytes[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** A small but representative capture: payloads, deps, produces. */
std::string
makeHostileSeedTrace(const std::string &name)
{
    static std::vector<std::uint64_t> data(64, 3);
    GuestMemory gmem;
    const Addr base = gmem.addRegion("t.data", data.data(), 64 * 8);
    const std::string path = tmpPath(name);
    TraceWriter w(path, gmem, "RandAcc", 1.0, 1, false);
    for (int i = 0; i < 40; ++i) {
        data[static_cast<std::size_t>(i) % 8] ^= 0x5A5A + i;
        w.onMicroOp(i * 3, op(MicroOp::Kind::Load, 2,
                              base + static_cast<Addr>(i % 8) * 8, 1,
                              static_cast<ValueId>(i + 1),
                              static_cast<ValueId>(i)));
    }
    w.finalize(42);
    return path;
}

TEST(TraceHardening, RejectsCorruptScaleFactor)
{
    const std::string path = makeHostileSeedTrace("hscale.epftrace");
    const auto bytes = readAll(path);
    const double bad[] = {std::nan(""), 0.0, -1.0, 1e300};
    for (double v : bad) {
        auto mangled = bytes;
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        putU64At(mangled, kOffScale, bits);
        const std::string p = tmpPath("hscale_bad.epftrace");
        writeAll(p, mangled);
        EXPECT_THROW(TraceReader{p}, std::runtime_error) << v;
    }
}

TEST(TraceHardening, RejectsCorruptRegionTable)
{
    const std::string path = makeHostileSeedTrace("hregion.epftrace");
    const auto bytes = readAll(path);
    // "RandAcc" is 7 bytes, so the region count lives at 64 + 2 + 7.
    const std::size_t off_nregions = 73;
    const std::size_t off_region_size = off_nregions + 4 + 2 + 6 + 8;

    // A region-count claim of 4 billion must fail as "corrupt", not as
    // an attempt to parse the whole file as region entries.
    auto mangled = bytes;
    putU64At(mangled, off_nregions, 0xFFFFFFFF'00000000ULL >> 32);
    const std::string p1 = tmpPath("hregion_count.epftrace");
    writeAll(p1, mangled);
    EXPECT_THROW(TraceReader{p1}, std::runtime_error);

    // A 2^60-byte region size must fail before replay tries to allocate
    // a buffer for it.
    mangled = bytes;
    putU64At(mangled, off_region_size, 1ULL << 60);
    const std::string p2 = tmpPath("hregion_size.epftrace");
    writeAll(p2, mangled);
    EXPECT_THROW(TraceReader{p2}, std::runtime_error);
}

TEST(TraceHardening, RejectsCorruptRecordCount)
{
    const std::string path = makeHostileSeedTrace("hcount.epftrace");
    auto mangled = readAll(path);
    putU64At(mangled, kOffRecCount, 1ULL << 40);
    const std::string p = tmpPath("hcount_bad.epftrace");
    writeAll(p, mangled);
    EXPECT_THROW(TraceReader{p}, std::runtime_error);
}

TEST(TraceHardening, FuzzedFilesNeverEscapeRuntimeError)
{
    // Deterministic corruption fuzz over the whole decoder.  Three
    // attack shapes: truncation, header flips, and record-byte flips
    // with the stream checksum fixed up afterwards (otherwise the
    // checksum gate catches everything before the varint decoder runs).
    // Every variant must either load cleanly or throw std::runtime_error
    // — any other escape (crash, bad_alloc, different exception type)
    // fails the test.
    const std::string path = makeHostileSeedTrace("hfuzz.epftrace");
    const auto bytes = readAll(path);
    const std::size_t records_begin = recordsBeginOf(TraceReader(path).meta());
    ASSERT_LT(records_begin, bytes.size());

    Rng rng(0xF022ED7'2ACEULL);
    const std::string p = tmpPath("hfuzz_case.epftrace");
    unsigned threw = 0;
    for (int iter = 0; iter < 400; ++iter) {
        auto mangled = bytes;
        switch (rng.below(3)) {
        case 0: // truncate anywhere, including mid-header
            mangled.resize(rng.below(mangled.size()));
            break;
        case 1: // flip 1..4 header bytes
            for (std::uint64_t k = rng.below(4) + 1; k > 0; --k)
                mangled[rng.below(records_begin)] ^=
                    static_cast<std::uint8_t>(1u << rng.below(8));
            break;
        default: // flip 1..4 record bytes, then re-seal the checksum
            for (std::uint64_t k = rng.below(4) + 1; k > 0; --k)
                mangled[records_begin +
                        rng.below(mangled.size() - records_begin)] ^=
                    static_cast<std::uint8_t>(1u << rng.below(8));
            putU64At(mangled, kOffStreamSum,
                     fnvOf(mangled, records_begin));
            break;
        }
        writeAll(p, mangled);
        try {
            TraceReader r(p);
            TraceRecord rec;
            while (r.next(rec)) {
            }
        } catch (const std::runtime_error &) {
            ++threw;
        }
    }
    // The fuzz must actually be reaching the error paths, not silently
    // producing valid files.
    EXPECT_GT(threw, 100u);
}

TEST(TraceCapture, CaptureRunMatchesUninstrumentedRun)
{
    // The fetch hook must be timing-invisible: a captured run's stats
    // equal the same run without capture.
    RunConfig cfg = goldenConfig(Technique::kManual);
    RunResult plain = runExperiment("IntSort", cfg);
    cfg.tracePath = tmpPath("intsort_manual.epftrace");
    RunResult captured = runExperiment("IntSort", cfg);
    EXPECT_EQ(statsOf(cfg.technique, plain),
              statsOf(cfg.technique, captured));

    TraceReader r(cfg.tracePath);
    EXPECT_EQ(r.meta().sourceWorkload, "IntSort");
    EXPECT_EQ(r.meta().workloadChecksum, plain.checksum);
    EXPECT_GT(r.meta().recordCount, 0u);
}

TEST(TraceReplay, ReplayReproducesLiveStats)
{
    // One fast cell of the acceptance matrix (the full grid is tier 2):
    // capture RandAcc under the manual-PPF technique, replay, compare
    // the full stats block byte for byte.
    RunConfig cfg = goldenConfig(Technique::kManual);
    cfg.tracePath = tmpPath("randacc_manual.epftrace");
    RunResult live = runExperiment("RandAcc", cfg);

    RunConfig replay_cfg = goldenConfig(Technique::kManual);
    RunResult replay =
        runExperiment("trace:" + cfg.tracePath, replay_cfg);
    EXPECT_EQ(statsOf(cfg.technique, live),
              statsOf(cfg.technique, replay));
}

TEST(TraceReplay, StandaloneReplayOfUnknownSource)
{
    // A trace captured *from a replay* records no source workload, so
    // replaying it exercises the standalone path: zero-filled regions
    // populated purely from recorded payloads.
    RunConfig cfg = goldenConfig(Technique::kNone);
    cfg.tracePath = tmpPath("is_none.epftrace");
    RunResult live = runExperiment("IntSort", cfg);

    RunConfig recap = goldenConfig(Technique::kNone);
    recap.tracePath = tmpPath("is_none_recap.epftrace");
    RunResult first = runExperiment("trace:" + cfg.tracePath, recap);
    EXPECT_EQ(statsOf(cfg.technique, live), statsOf(cfg.technique, first));

    TraceReader meta(recap.tracePath);
    EXPECT_EQ(meta.meta().sourceWorkload, "");

    RunResult standalone =
        runExperiment("trace:" + recap.tracePath, goldenConfig(cfg.technique));
    EXPECT_EQ(statsOf(cfg.technique, live),
              statsOf(cfg.technique, standalone));
}

TEST(TraceReplay, SoftwareUnavailableWithoutSwpfCapture)
{
    RunConfig cfg = goldenConfig(Technique::kNone);
    cfg.tracePath = tmpPath("cg_none.epftrace");
    runExperiment("ConjGrad", cfg);

    RunResult res = runExperiment("trace:" + cfg.tracePath,
                                  goldenConfig(Technique::kSoftware));
    EXPECT_FALSE(res.available);
}

/**
 * A trace whose second load waits on a value no op produces can never
 * retire: the run must fail, naming the core, instead of returning the
 * cycles it managed before the event queue ran dry.
 */
TEST(TraceReplay, UnfinishedCoreFailsTheRun)
{
    std::vector<std::uint64_t> data(64);
    GuestMemory gmem;
    const Addr base = gmem.addRegion("t.data", data.data(),
                                     data.size() * sizeof(std::uint64_t));
    const std::string path = tmpPath("unfinished.epftrace");
    {
        TraceWriter w(path, gmem, "", 1.0, 1, false);
        w.onMicroOp(0, op(MicroOp::Kind::Load, 1, base, 0, 1));
        w.onMicroOp(1, op(MicroOp::Kind::Load, 1, base + 64, 1, 2, 9));
        w.onMicroOp(2, op(MicroOp::Kind::Work, 3, 0, -1, 0, 2));
        w.finalize(0);
    }

    try {
        runExperiment("trace:" + path, goldenConfig(Technique::kNone));
        FAIL() << "a core that never finishes must fail the run";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("core 0"), std::string::npos)
            << e.what();
    }
}

TEST(TraceReplay, RegistryNames)
{
    ::unsetenv("EPF_TRACE");
    EXPECT_EQ(makeWorkload("Trace"), nullptr); // no EPF_TRACE set
    EXPECT_THROW(makeWorkload("trace:/nonexistent/file"),
                 std::runtime_error);

    RunConfig cfg = goldenConfig(Technique::kNone);
    cfg.scale.factor = 0.005;
    cfg.tracePath = tmpPath("registry.epftrace");
    runExperiment("RandAcc", cfg);
    ::setenv("EPF_TRACE", cfg.tracePath.c_str(), 1);
    auto wl = makeWorkload("Trace");
    ::unsetenv("EPF_TRACE");
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), "Trace");
}

TEST(TraceSweep, TracePathExpandsAndLandsInJson)
{
    SweepEngine::Options opts;
    opts.threads = 2;
    SweepEngine engine(opts);
    RunConfig proto = goldenConfig(Technique::kNone);
    proto.scale.factor = 0.005;
    proto.tracePath = tmpPath("sweep_{workload}_{technique}.epftrace");
    engine.addGrid({"IntSort", "RandAcc"}, {Technique::kNone}, proto);
    auto outcomes = engine.run();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &o : outcomes) {
        ASSERT_FALSE(o.failed) << o.error;
        // Placeholders expanded per cell...
        EXPECT_EQ(o.cell.config.tracePath,
                  tmpPath("sweep_" + o.cell.workload + "_None.epftrace"));
        // ...and the capture file really exists and replays.
        TraceReader r(o.cell.config.tracePath);
        EXPECT_EQ(r.meta().sourceWorkload, o.cell.workload);
    }

    std::ostringstream os;
    SweepEngine::writeJson(os, outcomes);
    EXPECT_NE(os.str().find("\"trace\": \"" +
                            tmpPath("sweep_IntSort_None.epftrace")),
              std::string::npos);
}

TEST(TraceSweep, LiteralPathCollisionsGetUniqueSuffixes)
{
    // A capture path without placeholders must not be shared across
    // cells: concurrent writers would interleave into one file.
    SweepEngine::Options opts;
    opts.threads = 2;
    SweepEngine engine(opts);
    RunConfig proto = goldenConfig(Technique::kNone);
    proto.scale.factor = 0.005;
    proto.tracePath = tmpPath("shared.epftrace");
    engine.add("IntSort", proto);
    engine.add("RandAcc", proto);
    auto outcomes = engine.run();
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_FALSE(outcomes[0].failed) << outcomes[0].error;
    ASSERT_FALSE(outcomes[1].failed) << outcomes[1].error;
    EXPECT_NE(outcomes[0].cell.config.tracePath,
              outcomes[1].cell.config.tracePath);
    for (const auto &o : outcomes) {
        TraceReader r(o.cell.config.tracePath);
        EXPECT_EQ(r.meta().sourceWorkload, o.cell.workload);
        std::remove(o.cell.config.tracePath.c_str());
    }
}

} // namespace
} // namespace epf

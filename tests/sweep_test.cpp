/**
 * @file
 * Tests for the parallel sweep engine: deterministic per-cell seed
 * derivation, identical results at any thread count, grid layout,
 * dataset pinning via seedAs, failure isolation and JSON emission.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>

#include "../bench/bench_common.hpp"
#include "runner/sweep.hpp"

namespace epf
{
namespace
{

constexpr double kTinyScale = 0.02;

SweepEngine
engineWith(unsigned threads)
{
    SweepEngine::Options opts;
    opts.threads = threads;
    return SweepEngine(opts);
}

RunConfig
tinyConfig(Technique t)
{
    RunConfig cfg;
    cfg.technique = t;
    cfg.scale.factor = kTinyScale;
    return cfg;
}

TEST(DeriveCellSeedTest, StableAndDecorrelated)
{
    const std::uint64_t s =
        deriveCellSeed(1, "RandAcc", Technique::kStride);
    EXPECT_EQ(s, deriveCellSeed(1, "RandAcc", Technique::kStride));
    EXPECT_NE(s, deriveCellSeed(2, "RandAcc", Technique::kStride));
    EXPECT_NE(s, deriveCellSeed(1, "IntSort", Technique::kStride));
    EXPECT_NE(s, deriveCellSeed(1, "RandAcc", Technique::kNone));
}

TEST(SweepEngineTest, GridLayoutIsRowMajor)
{
    SweepEngine e = engineWith(1);
    e.addGrid({"RandAcc", "IntSort"},
              {Technique::kNone, Technique::kStride},
              tinyConfig(Technique::kNone));
    ASSERT_EQ(e.size(), 4u);
    EXPECT_EQ(e.cells()[0].workload, "RandAcc");
    EXPECT_EQ(e.cells()[0].config.technique, Technique::kNone);
    EXPECT_EQ(e.cells()[1].workload, "RandAcc");
    EXPECT_EQ(e.cells()[1].config.technique, Technique::kStride);
    EXPECT_EQ(e.cells()[2].workload, "IntSort");
    EXPECT_EQ(e.cells()[3].label, techniqueName(Technique::kStride));
}

/** The acceptance property: a grid run with 1 thread and with N
 *  threads yields identical RunResults cell for cell. */
TEST(SweepEngineTest, ThreadCountDoesNotChangeResults)
{
    const std::vector<std::string> wls = {"RandAcc", "IntSort"};
    const std::vector<Technique> techs = {Technique::kNone,
                                          Technique::kStride};

    SweepEngine serial = engineWith(1);
    serial.addGrid(wls, techs, tinyConfig(Technique::kNone));
    const auto a = serial.run();

    SweepEngine pooled = engineWith(4);
    pooled.addGrid(wls, techs, tinyConfig(Technique::kNone));
    const auto b = pooled.run();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].cell.workload + "/" + a[i].cell.label);
        EXPECT_FALSE(a[i].failed);
        EXPECT_FALSE(b[i].failed);
        EXPECT_EQ(a[i].cell.config.seed, b[i].cell.config.seed);
        EXPECT_EQ(a[i].result.checksum, b[i].result.checksum);
        EXPECT_EQ(a[i].result.cycles, b[i].result.cycles);
        EXPECT_EQ(a[i].result.instrs, b[i].result.instrs);
        EXPECT_EQ(a[i].result.dramReads, b[i].result.dramReads);
    }
}

TEST(SweepEngineTest, SeedAsPinsTheDataset)
{
    // Pinning every column to kNone's seed makes all techniques run the
    // same workload instance: functional checksums must agree.
    SweepEngine e = engineWith(2);
    e.addGrid({"RandAcc"}, {Technique::kNone, Technique::kStride},
              tinyConfig(Technique::kNone), Technique::kNone);
    const auto out = e.run();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cell.config.seed, out[1].cell.config.seed);
    EXPECT_EQ(out[0].result.checksum, out[1].result.checksum);

    // Without pinning, the techniques get decorrelated datasets.
    SweepEngine e2 = engineWith(2);
    e2.addGrid({"RandAcc"}, {Technique::kNone, Technique::kStride},
               tinyConfig(Technique::kNone));
    const auto out2 = e2.run();
    EXPECT_NE(out2[0].cell.config.seed, out2[1].cell.config.seed);
}

TEST(SweepEngineTest, FailedCellDoesNotAbortSweep)
{
    SweepEngine e = engineWith(2);
    e.add("NoSuchWorkload", tinyConfig(Technique::kNone));
    e.add("RandAcc", tinyConfig(Technique::kNone));
    const auto out = e.run();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].failed);
    EXPECT_NE(out[0].error.find("NoSuchWorkload"), std::string::npos);
    EXPECT_FALSE(out[1].failed);
    EXPECT_GT(out[1].result.cycles, 0u);
}

TEST(SweepEngineTest, ProgressCallbackSeesEveryCell)
{
    SweepEngine::Options opts;
    opts.threads = 2;
    std::size_t calls = 0;
    std::size_t last_total = 0;
    opts.progress = [&](std::size_t, std::size_t total,
                        const SweepOutcome &) {
        ++calls;
        last_total = total;
    };
    SweepEngine e(opts);
    e.add("RandAcc", tinyConfig(Technique::kNone));
    e.add("IntSort", tinyConfig(Technique::kNone));
    e.run();
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(last_total, 2u);
}

TEST(SweepEngineTest, RunClearsTheQueue)
{
    SweepEngine e = engineWith(1);
    e.add("RandAcc", tinyConfig(Technique::kNone));
    EXPECT_EQ(e.size(), 1u);
    e.run();
    EXPECT_EQ(e.size(), 0u);
    EXPECT_TRUE(e.run().empty());
}

TEST(SweepJsonTest, EmitsWellFormedRecords)
{
    SweepEngine e = engineWith(2);
    e.add("RandAcc", tinyConfig(Technique::kNone), "baseline");
    e.add("NoSuchWorkload", tinyConfig(Technique::kNone));
    const auto out = e.run();

    std::ostringstream os;
    SweepEngine::writeJson(os, out, /*detail=*/true);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"workload\": \"RandAcc\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    // Checksums are emitted as strings (they exceed 2^53).
    EXPECT_NE(json.find("\"checksum\": \""), std::string::npos);
    EXPECT_NE(json.find("\"detail\": {"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
    // Crude balance check on the array brackets.
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("]\n"), std::string::npos);
}

// Counters are doubles in the registry; the stream's default format
// would print 6068087 as 6.06809e+06.
TEST(SweepJsonTest, WritesIntegralDetailValuesExactly)
{
    SweepOutcome o;
    o.cell.workload = "G500-CSR";
    o.result.detail.set("core.cycles", 6068087);
    o.result.detail.set("l1.hitRate", 0.125);

    std::ostringstream os;
    SweepEngine::writeJson(os, {o}, /*detail=*/true);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"core.cycles\": 6068087"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"l1.hitRate\": 0.125"), std::string::npos)
        << json;
}

/** Scoped setenv/unsetenv that restores the previous value. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvVar()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

/**
 * Minimal recursive-descent JSON reader: validates syntax and collects
 * every object key it sees.  Enough to prove the emitted sweep dump is
 * real JSON with the documented schema, without external dependencies.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return at_ == s_.size();
    }

    const std::set<std::string> &keys() const { return keys_; }

  private:
    bool
    value()
    {
        if (at_ >= s_.size())
            return false;
        const char c = s_[at_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string(nullptr);
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++at_; // '{'
        skipWs();
        if (peek() == '}') {
            ++at_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            keys_.insert(key);
            skipWs();
            if (peek() != ':')
                return false;
            ++at_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            if (peek() == '}') {
                ++at_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++at_; // '['
        skipWs();
        if (peek() == ']') {
            ++at_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            if (peek() == ']') {
                ++at_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string *out)
    {
        if (peek() != '"')
            return false;
        ++at_;
        std::string v;
        while (at_ < s_.size() && s_[at_] != '"') {
            if (s_[at_] == '\\') {
                if (at_ + 1 >= s_.size())
                    return false;
                ++at_;
            }
            v += s_[at_++];
        }
        if (at_ >= s_.size())
            return false;
        ++at_; // closing quote
        if (out != nullptr)
            *out = v;
        return true;
    }

    bool
    number()
    {
        const std::size_t start = at_;
        while (at_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
                s_[at_] == '-' || s_[at_] == '+' || s_[at_] == '.' ||
                s_[at_] == 'e' || s_[at_] == 'E'))
            ++at_;
        return at_ > start;
    }

    bool
    literal(const std::string &lit)
    {
        if (s_.compare(at_, lit.size(), lit) != 0)
            return false;
        at_ += lit.size();
        return true;
    }

    void
    skipWs()
    {
        while (at_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[at_])))
            ++at_;
    }

    char peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }

    std::string s_;
    std::size_t at_ = 0;
    std::set<std::string> keys_;
};

TEST(SweepEnvTest, ThreadsKnobRoundTrips)
{
    {
        EnvVar t("EPF_THREADS", "3");
        EXPECT_EQ(sweepThreadsFromEnv(0), 3u);
        EXPECT_EQ(sweepThreadsFromEnv(7), 3u);
    }
    {
        EnvVar t("EPF_THREADS", nullptr);
        EXPECT_EQ(sweepThreadsFromEnv(7), 7u);
    }
    {
        // Junk and non-positive values fall back.
        EnvVar t("EPF_THREADS", "bogus");
        EXPECT_EQ(sweepThreadsFromEnv(5), 5u);
    }
    {
        EnvVar t("EPF_THREADS", "-2");
        EXPECT_EQ(sweepThreadsFromEnv(5), 5u);
    }
}

TEST(SweepEnvTest, SeedAndThreadsReachTheEmittedJson)
{
    // The harness path every fig/table binary takes: environment ->
    // engine options -> derived per-cell seeds -> JSON dump.
    EnvVar t("EPF_THREADS", "2");
    EnvVar s("EPF_SEED", "0xABCD1234");
    EnvVar p("EPF_PROGRESS", nullptr);

    SweepEngine engine = bench::makeEngine();
    RunConfig proto = tinyConfig(Technique::kStride);
    engine.add("IntSort", proto);
    engine.add("RandAcc", proto);
    const auto outcomes = engine.run();
    ASSERT_EQ(outcomes.size(), 2u);

    // EPF_SEED drove every cell's derived seed.
    EXPECT_EQ(outcomes[0].cell.config.seed,
              deriveCellSeed(0xABCD1234, "IntSort", Technique::kStride));
    EXPECT_EQ(outcomes[1].cell.config.seed,
              deriveCellSeed(0xABCD1234, "RandAcc", Technique::kStride));

    std::ostringstream os;
    SweepEngine::writeJson(os, outcomes, /*detail=*/true);
    const std::string json = os.str();

    // The dump is real JSON...
    JsonChecker checker(json);
    ASSERT_TRUE(checker.parse()) << json;

    // ...with the documented schema keys...
    for (const char *key :
         {"workload", "technique", "label", "seed", "cores", "cycles",
          "instrs", "ticks", "l1ReadHitRate", "l2HitRate",
          "pfUtilisation", "l1PrefetchFills", "dramReads", "dramWrites",
          "checksum", "detail", "hostSeconds"})
        EXPECT_TRUE(checker.keys().count(key) != 0) << key;
    // ...including the split store-retry counter in the detail block.
    EXPECT_TRUE(checker.keys().count("mem.storeRetries") != 0);
    EXPECT_TRUE(checker.keys().count("mem.loadRetries") != 0);

    // The derived seeds appear verbatim (decimal strings).
    EXPECT_NE(json.find("\"seed\": \"" +
                        std::to_string(outcomes[0].cell.config.seed) +
                        "\""),
              std::string::npos);
}

} // namespace
} // namespace epf

// Unit tests for the observability layer: bucket math exactness,
// disabled-mode behaviour, text/JSON encoding round-trips, concurrent
// record vs snapshot churn (the TSan target), and docs/metrics.md
// naming every key a threaded write and read register.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "atc/atc.hpp"
#include "obs/metrics.hpp"
#include "trace/pipeline.hpp"

namespace obs = atc::obs;
namespace core = atc::core;

namespace {

// Tests toggle the global runtime switch; restore it no matter how
// the test exits.
struct EnabledGuard {
    EnabledGuard() = default;
    ~EnabledGuard() { obs::setEnabled(true); }
};

TEST(ObsHistogram, BucketBoundariesExact)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    // Bucket b >= 1 covers [2^(b-1), 2^b): both edges must land
    // exactly, for every width.
    for (size_t b = 1; b <= 64; ++b) {
        uint64_t lo = uint64_t{1} << (b - 1);
        EXPECT_EQ(obs::Histogram::bucketOf(lo), b) << "low edge b=" << b;
        uint64_t hi = (b == 64) ? ~uint64_t{0} : (uint64_t{1} << b) - 1;
        EXPECT_EQ(obs::Histogram::bucketOf(hi), b) << "high edge b=" << b;
        EXPECT_EQ(obs::Histogram::bucketLow(b), lo);
    }
    EXPECT_EQ(obs::Histogram::bucketLow(0), 0u);
}

TEST(ObsRegistry, CountersGaugesHistogramsSnapshot)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "built with ATC_OBS_OFF";
    obs::Registry reg;
    obs::Counter &c = reg.counter("test.count");
    obs::Gauge &g = reg.gauge("test.depth");
    obs::Histogram &h = reg.histogram("test.lat_us");

    // Same name returns the same cell.
    EXPECT_EQ(&c, &reg.counter("test.count"));
    EXPECT_EQ(&h, &reg.histogram("test.lat_us"));

    c.add(40);
    c.inc();
    c.inc();
    g.set(7);
    g.inc();
    g.dec();
    h.record(0);
    h.record(1);
    h.record(5);    // bucket 3: [4,8)
    h.record(100);  // bucket 7: [64,128)

    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("test.count"), 42);
    EXPECT_EQ(snap.value("test.depth"), 7);
    EXPECT_EQ(snap.value("test.absent"), 0);
    const obs::HistogramValue &hv = snap.histograms.at("test.lat_us");
    EXPECT_EQ(hv.count, 4u);
    EXPECT_EQ(hv.sum, 106);
    EXPECT_EQ(hv.buckets[0], 1u);
    EXPECT_EQ(hv.buckets[1], 1u);
    EXPECT_EQ(hv.buckets[3], 1u);
    EXPECT_EQ(hv.buckets[7], 1u);
    EXPECT_EQ(snap.histSum("test.lat_us"), 106);
    EXPECT_EQ(snap.histCount("test.lat_us"), 4u);
}

TEST(ObsRegistry, DisabledModeDropsRecordsAndSnapshotsEmpty)
{
    EnabledGuard guard;
    obs::Registry reg;
    obs::Counter &c = reg.counter("test.count");
    obs::Histogram &h = reg.histogram("test.lat_us");
    c.add(5);

    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
    c.add(1000);    // dropped
    h.record(123);  // dropped
    EXPECT_EQ(obs::nowNs(), 0u);  // timers skip clock reads
    EXPECT_TRUE(reg.snapshot().empty());

    obs::setEnabled(true);
    obs::Snapshot snap = reg.snapshot();
    if (obs::kCompiledIn) {
        EXPECT_EQ(snap.value("test.count"), 5);
        EXPECT_EQ(snap.histCount("test.lat_us"), 0u);
    } else {
        EXPECT_TRUE(snap.empty());
    }
}

TEST(ObsRegistry, ConcurrentRecordVsSnapshotChurn)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "built with ATC_OBS_OFF";
    obs::Registry reg;
    obs::Counter &c = reg.counter("churn.count");
    obs::Histogram &h = reg.histogram("churn.lat_us");

    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::atomic<bool> stop{false};

    // Snapshot churn concurrent with recording: values are transient
    // but every read must be race-free and monotonically plausible.
    std::thread snapper([&] {
        int64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            obs::Snapshot s = reg.snapshot();
            int64_t v = s.value("churn.count");
            EXPECT_GE(v, last);
            last = v;
            // Registration churn from another thread must not
            // invalidate prior handles either.
            reg.counter("churn.extra." +
                        std::to_string(last % 16));
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.record(static_cast<uint64_t>((t * kIters + i) %
                                               1024));
            }
        });
    }
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    snapper.join();

    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("churn.count"),
              int64_t(kThreads) * kIters);
    EXPECT_EQ(snap.histCount("churn.lat_us"),
              uint64_t(kThreads) * kIters);
}

TEST(ObsText, RoundTripAndRejects)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "built with ATC_OBS_OFF";
    obs::Registry reg;
    reg.counter("a.count").add(12);
    reg.gauge("b.depth").set(-3);
    obs::Histogram &h = reg.histogram("c.lat_us");
    h.record(0);
    h.record(9);

    std::string text = obs::snapshotToText(reg.snapshot());
    EXPECT_EQ(text.rfind("atc_metrics 1\n", 0), 0u);

    std::map<std::string, int64_t> parsed;
    ASSERT_TRUE(obs::parseMetricsText(text, parsed));
    EXPECT_EQ(parsed.at("a.count"), 12);
    EXPECT_EQ(parsed.at("b.depth"), -3);
    EXPECT_EQ(parsed.at("c.lat_us.count"), 2);
    EXPECT_EQ(parsed.at("c.lat_us.sum"), 9);
    EXPECT_EQ(parsed.at("c.lat_us.bucket0"), 1);
    EXPECT_EQ(parsed.at("c.lat_us.bucket4"), 1);  // 9 in [8,16)

    EXPECT_FALSE(obs::parseMetricsText("bogus 2\nx 1\n", parsed));
    EXPECT_FALSE(obs::parseMetricsText("", parsed));
    EXPECT_FALSE(
        obs::parseMetricsText("atc_metrics 1\nnovalue\n", parsed));
    EXPECT_FALSE(
        obs::parseMetricsText("atc_metrics 1\nk notanint\n", parsed));

    std::string json = obs::snapshotToJson(reg.snapshot());
    EXPECT_NE(json.find("\"atc_metrics\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"a.count\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"c.lat_us.sum\": 9"), std::string::npos);
}

TEST(ObsHistogram, QuantileFromBuckets)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "built with ATC_OBS_OFF";
    obs::Registry reg;
    obs::Histogram &h = reg.histogram("q.lat_us");
    for (int i = 0; i < 90; ++i)
        h.record(3);  // bucket 2: low edge 2
    for (int i = 0; i < 10; ++i)
        h.record(1000);  // bucket 10: low edge 512
    obs::HistogramValue hv =
        reg.snapshot().histograms.at("q.lat_us");
    EXPECT_EQ(hv.quantile(0.5), 2u);
    EXPECT_EQ(hv.quantile(0.99), 512u);
}

TEST(ObsDocs, EveryKeyAThreadedWriteAndReadRegistersIsDocumented)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "built with ATC_OBS_OFF";
    EnabledGuard guard;
    obs::setEnabled(true);

    // Register the library's record sites the way a real run does:
    // a lossless and a lossy container written and read back on a
    // pool, so pool, codec, transform, lossy, cache and I/O keys all
    // appear in the global registry.
    std::vector<uint64_t> addrs(40'000);
    uint64_t base = 0x10000000;
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = (base += (i * 2654435761u) % 512) & 0x3FFFFFFF;
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        core::AtcOptions opt;
        opt.mode = mode;
        opt.pipeline.codec_block = 16 * 1024;
        opt.pipeline.buffer_addrs = 4096;
        opt.lossy.interval_len = 8192;
        core::MemoryStore store;
        core::AtcWriter writer(store, opt, 2);
        writer.write(addrs.data(), addrs.size());
        writer.close();
        core::AtcReader reader(store, core::kDefaultDecodedCacheBytes, 2);
        EXPECT_EQ(atc::trace::collect(reader).size(), addrs.size());
    }

    std::ifstream in(ATC_METRICS_DOC);
    ASSERT_TRUE(in) << "cannot open " << ATC_METRICS_DOC;
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    obs::Snapshot snap = obs::Registry::global().snapshot();
    std::vector<std::string> keys;
    for (const auto &kv : snap.counters)
        keys.push_back(kv.first);
    for (const auto &kv : snap.gauges)
        keys.push_back(kv.first);
    for (const auto &kv : snap.histograms)
        keys.push_back(kv.first);
    ASSERT_GT(keys.size(), 20u);
    for (const std::string &key : keys)
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << key << " is registered but not in docs/metrics.md";
}

}  // namespace

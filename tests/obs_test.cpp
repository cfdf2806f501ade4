// Unit tests for the observability layer: bucket math exactness,
// disabled-mode behaviour, text/JSON encoding round-trips, concurrent
// record vs snapshot churn (the TSan target), lossy reads counting only
// chunk-cache lookups in cache.*, and docs/metrics.md naming every key
// a threaded write and read register.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "cache/filter.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "study/sample_plan.hpp"
#include "study/sample_study.hpp"
#include "trace/pipeline.hpp"

namespace obs = atc::obs;
namespace core = atc::core;
namespace cache = atc::cache;
namespace serve = atc::serve;
namespace study = atc::study;

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
    EXPECT_EQ(snap.value("test.count"), 5);
    EXPECT_EQ(snap.histCount("test.lat_us"), 0u);
}

TEST(ObsRegistry, ThreadTallyCountsRecordOperationsWhileEnabled)
{
    // The obs_overhead bench multiplies these counts by unit costs, so
    // each operation counts once, on its own thread, and only with
    // recording on.
    EnabledGuard guard;
    obs::Registry reg;
    obs::Counter &c = reg.counter("test.count");
    obs::Gauge &g = reg.gauge("test.level");
    obs::Histogram &h = reg.histogram("test.lat_us");
    auto delta = [](const obs::RecordTally &a, const obs::RecordTally &b) {
        return std::array<uint64_t, 3>{b.clock_reads - a.clock_reads,
                                       b.adds - a.adds,
                                       b.records - a.records};
    };
    obs::RecordTally t0 = obs::threadTally();
    c.add(3);
    g.add(1);
    h.record(7);
    { obs::StageTimer timer(c); }
    EXPECT_EQ(delta(t0, obs::threadTally()),
              (std::array<uint64_t, 3>{2, 3, 1}));

    t0 = obs::threadTally();
    std::thread other([&] {
        c.inc();
        h.record(1);
    });
    other.join();
    EXPECT_EQ(delta(t0, obs::threadTally()),
              (std::array<uint64_t, 3>{0, 0, 0}));

    obs::setEnabled(false);
    c.add(3);
    h.record(7);
    { obs::StageTimer timer(c); }
    EXPECT_EQ(delta(t0, obs::threadTally()),
              (std::array<uint64_t, 3>{0, 0, 0}));
}

TEST(ObsRegistry, ConcurrentRecordVsSnapshotChurn)
{
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

TEST(ObsCache, LossyReadsCountOnlyChunkCacheLookups)
{
    EnabledGuard guard;
    obs::setEnabled(true);

    // A lossy chunk's frames decode once per chunk, and the chunk cache
    // keeps its records, so the frame cache stays empty in lossy mode.
    // A lossy read must not look it up either, or each frame's miss
    // would land in cache.misses beside its chunk's.
    std::vector<uint64_t> addrs(40'000);
    uint64_t base = 0x10000000;
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = (base += (i * 2654435761u) % 512) & 0x3FFFFFFF;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossy;
    opt.pipeline.codec_block = 4096; // several frames per chunk
    opt.pipeline.buffer_addrs = 1000;
    opt.lossy.interval_len = 5000;
    core::MemoryStore store;
    {
        core::AtcWriter writer(store, opt);
        writer.write(addrs.data(), addrs.size());
        writer.close();
    }
    auto index = core::AtcIndex::openOrThrow(store, core::IndexOptions{});
    ASSERT_GT(index->chunkLayout(0).frames.size(), 1u);

    obs::Snapshot before = obs::Registry::global().snapshot();
    auto cursor = index->cursor();
    std::vector<uint64_t> buf(4096);
    size_t total = 0;
    while (size_t got = cursor->read(buf.data(), buf.size()))
        total += got;
    EXPECT_EQ(total, addrs.size());
    std::vector<uint64_t> range;
    ASSERT_TRUE(cursor->readRange(12'000, 23'000, range).ok());
    obs::Snapshot delta = obs::Registry::global().snapshot().since(before);

    core::BlockCacheStats frames = index->frameCache().stats();
    EXPECT_EQ(frames.hits + frames.misses, 0u);
    core::BlockCacheStats chunks = index->chunkCache().stats();
    EXPECT_GT(chunks.misses, 0u);
    EXPECT_EQ(delta.value("cache.misses"),
              static_cast<int64_t>(chunks.misses));
    EXPECT_EQ(delta.value("cache.hits"), static_cast<int64_t>(chunks.hits));
}

TEST(ObsDocs, EveryKeyTheLibraryRegistersIsDocumented)
{
    EnabledGuard guard;
    obs::setEnabled(true);

    // Register the library's record sites the way real runs do: a
    // lossless and a lossy container written through the cache filter
    // and read back on a pool (pool, codec, transform, lossy, cache and
    // I/O keys), one READ_RANGE served by an in-process server (serve
    // keys) and a small sampling study (study keys).
    std::vector<uint64_t> addrs(40'000);
    uint64_t base = 0x10000000;
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = (base += (i * 2654435761u) % 512) & 0x3FFFFFFF;
    core::MemoryStore lossless;
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
        if (mode == core::Mode::Lossless)
            lossless = std::move(store);
    }
    {
        core::AtcOptions opt;
        core::MemoryStore store;
        core::AtcWriter writer(store, opt);
        cache::FilterStage stage(writer);
        stage.write(addrs.data(), addrs.size());
        stage.close();
    }

    serve::TraceServer server;
    ASSERT_TRUE(server.addContainer("t", lossless).ok());
    ASSERT_TRUE(server.start().ok());
    {
        auto client = serve::ServeClient::connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().message();
        auto remote = client.value().open("t");
        ASSERT_TRUE(remote.ok()) << remote.status().message();
        std::vector<uint64_t> got;
        ASSERT_TRUE(client.value()
                        .readRange(remote.value().handle, 100, 1100, got)
                        .ok());
        EXPECT_EQ(got.size(), 1000u);
    }
    server.stop();

    auto index = core::AtcIndex::openOrThrow(lossless, core::IndexOptions{});
    auto plan = study::SamplePlan::build("systematic:windows=4,len=2000",
                                         index->size());
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    study::StudyOptions sopt;
    sopt.sets = {64};
    sopt.max_ways = 4;
    sopt.threads = 2;
    ASSERT_TRUE(study::runSampleStudy(index, plan.value(), sopt).ok());

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
    // The lossy read above decodes its chunks through the cursor.
    EXPECT_NE(std::find(keys.begin(), keys.end(), "lossy.chunk_decode_us"),
              keys.end());
    for (const std::string &key : keys)
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << key << " is registered but not in docs/metrics.md";
}

}  // namespace

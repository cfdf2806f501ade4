/**
 * @file
 * Sampling-study tests: SamplePlan grammar (canonical round-trip,
 * deterministic uniform draws, validation of plans that do not fit the
 * trace), engine-vs-manual parity on a lossless container (the merged
 * result must equal hand-fed simulators over the same slices),
 * determinism across worker counts, decoded-byte attribution (a
 * sampled run decodes a fraction of what the full reference pass
 * decodes), the lossy seek-approximation bound (kSeek windows land on
 * interval boundaries at most one interval early and perturb miss
 * ratios only slightly vs kRange), and served-backend parity: an
 * in-process TraceServer must yield byte-identical window CRCs and
 * identical merged histograms to the local backend over the same
 * container. Windows are dealt to workers on demand: on a trace whose
 * quarters decode at very different cost, every thread count and both
 * backends give the serial result; two studies sharing one borrowed
 * pool each get their own; and a corrupt frame fails the study with
 * that frame's Status and stops the dealing. Plans whose arithmetic
 * would wrap are rejected. A borrowed pool that is already shut down
 * fails the study with an error Status instead of an exception.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "study/sample_plan.hpp"
#include "study/sample_study.hpp"
#include "store_frames.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

using study::Fetch;
using study::SamplePlan;
using study::StudyOptions;

std::vector<uint64_t>
makeTrace(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> trace(n);
    uint64_t base = 0x10000000;
    for (auto &v : trace) {
        base += rng.below(4096);
        v = (rng.below(16) == 0) ? rng.next() >> 20 : base;
    }
    return trace;
}

core::AtcOptions
makeOptions(core::Mode mode)
{
    core::AtcOptions opt;
    opt.mode = mode;
    // Small buffers/blocks: the test traces must span many frames for
    // "sampling decodes only the covering frames" to be observable.
    opt.pipeline.buffer_addrs = 777;
    opt.pipeline.codec_block = 4096;
    opt.lossy.interval_len = 1000;
    opt.lossy.epsilon = 0.5;
    return opt;
}

/** Four quarters whose windows cost sharply different amounts to
 *  decode: one repeated address, a sequential walk, the makeTrace mix,
 *  and uniformly random words. */
std::vector<uint64_t>
makeLopsidedTrace(size_t n, uint64_t seed)
{
    std::vector<uint64_t> trace = makeTrace(n, seed);
    util::Rng rng(seed + 1);
    const size_t q = n / 4;
    for (size_t i = 0; i < q; ++i)
        trace[i] = 0x4000;
    for (size_t i = q; i < 2 * q; ++i)
        trace[i] = 0x10000 + 64 * i;
    for (size_t i = 3 * q; i < n; ++i)
        trace[i] = rng.next();
    return trace;
}

core::MemoryStore
writeContainer(const std::vector<uint64_t> &trace,
               const core::AtcOptions &opt)
{
    core::MemoryStore store;
    core::AtcWriter writer(store, opt);
    writer.write(trace.data(), trace.size());
    writer.close();
    return store;
}

// ------------------------------------------------------------ the plan

TEST(SamplePlan, SystematicShapeAndCanonicalRoundTrip)
{
    auto plan = SamplePlan::build(
        "systematic:windows=4,len=1000,warmup=100", 100'000);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    const auto &w = plan.value().windows();
    ASSERT_EQ(w.size(), 4u);
    for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i].begin, i * 25'000);
        EXPECT_EQ(w[i].warmup, 100u);
        EXPECT_EQ(w[i].measure, 1000u);
    }
    EXPECT_EQ(plan.value().measuredRecords(), 4000u);
    EXPECT_EQ(plan.value().fetchedRecords(), 4400u);

    // describe() is canonical: rebuilding from it reproduces the plan.
    auto again =
        SamplePlan::build(plan.value().describe(), 100'000);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().describe(), plan.value().describe());
    ASSERT_EQ(again.value().windows().size(), w.size());
    for (size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(again.value().windows()[i].begin, w[i].begin);
}

TEST(SamplePlan, DefaultsAndSuffixes)
{
    auto plan = SamplePlan::build("systematic:windows=2,len=4k",
                                  1'000'000);
    ASSERT_TRUE(plan.ok());
    // warmup defaults to len/8; len takes the k suffix.
    EXPECT_EQ(plan.value().windows()[0].measure, 4096u);
    EXPECT_EQ(plan.value().windows()[0].warmup, 512u);

    auto zero = SamplePlan::build(
        "systematic:windows=2,len=4k,warmup=0", 1'000'000);
    ASSERT_TRUE(zero.ok());
    EXPECT_EQ(zero.value().windows()[0].warmup, 0u);
}

TEST(SamplePlan, UniformIsDeterministicSortedAndSeeded)
{
    auto a = SamplePlan::build("uniform:windows=16,len=100,seed=7",
                               50'000);
    auto b = SamplePlan::build("uniform:windows=16,len=100,seed=7",
                               50'000);
    auto c = SamplePlan::build("uniform:windows=16,len=100,seed=8",
                               50'000);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_EQ(a.value().windows().size(), 16u);
    bool differs = false;
    for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(a.value().windows()[i].begin,
                  b.value().windows()[i].begin);
        differs = differs || a.value().windows()[i].begin !=
                                 c.value().windows()[i].begin;
        if (i > 0) {
            EXPECT_GE(a.value().windows()[i].begin,
                      a.value().windows()[i - 1].begin);
        }
        EXPECT_LE(a.value().windows()[i].end(), 50'000u);
    }
    EXPECT_TRUE(differs);
}

TEST(SamplePlan, ExplicitStarts)
{
    auto plan = SamplePlan::build(
        "explicit:at=0+4k+30000,len=512,warmup=0", 50'000);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    ASSERT_EQ(plan.value().windows().size(), 3u);
    EXPECT_EQ(plan.value().windows()[1].begin, 4096u);
    EXPECT_EQ(plan.value().windows()[2].begin, 30'000u);
}

TEST(SamplePlan, RejectsWhatDoesNotFit)
{
    EXPECT_FALSE(SamplePlan::build("smarts:windows=4", 1000).ok());
    EXPECT_FALSE(
        SamplePlan::build("systematic:windows=4,foo=1", 100'000).ok());
    // One window longer than the trace.
    EXPECT_FALSE(
        SamplePlan::build("systematic:windows=1,len=2000", 1000).ok());
    // Windows collectively overcover the trace.
    EXPECT_FALSE(
        SamplePlan::build("systematic:windows=100,len=100,warmup=0",
                          5000)
            .ok());
    // Explicit window running past the end.
    EXPECT_FALSE(
        SamplePlan::build("explicit:at=900,len=200,warmup=0", 1000)
            .ok());
    EXPECT_FALSE(
        SamplePlan::build("explicit:at=1x,len=10", 1000).ok());
    // Plans whose arithmetic would wrap: each is one error Status, not
    // a plan of 2^48 windows or a window past the end of the trace.
    for (const char *spec :
         {"systematic:windows=262144g,len=64k,warmup=0",
          "uniform:windows=1g,len=64,warmup=0",
          "uniform:windows=17,len=64k,warmup=0",
          "explicit:at=18446744073709551615,len=2,warmup=0",
          "explicit:at=18446744073709551616,len=2,warmup=0",
          "explicit:at=17179869184g,len=2,warmup=0",
          "explicit:at=-1,len=2,warmup=0",
          "explicit:at=0,len=2m,warmup=0"}) {
        auto plan = SamplePlan::build(spec, 1u << 20);
        ASSERT_FALSE(plan.ok()) << spec;
        EXPECT_NE(plan.status().message().find("sample plan"),
                  std::string::npos)
            << spec << ": " << plan.status().message();
    }
}

// ---------------------------------------------------------- the engine

TEST(SampleStudy, MatchesManuallyFedSimulators)
{
    auto trace = makeTrace(40'000, 11);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);

    StudyOptions opt;
    opt.sets = {64, 256};
    opt.max_ways = 8;
    opt.threads = 3;
    auto plan = SamplePlan::build(
        "explicit:at=100+9000+30000,len=2000,warmup=500", index->size());
    ASSERT_TRUE(plan.ok());

    auto run = study::runSampleStudy(index, plan.value(), opt);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const study::StudyResult &result = run.value();
    ASSERT_EQ(result.windows.size(), 3u);

    // Hand-feed the same slices of the original trace.
    for (size_t s = 0; s < opt.sets.size(); ++s) {
        cache::StackSimulator manual(opt.sets[s], opt.max_ways);
        for (const auto &w : plan.value().windows()) {
            cache::StackSimulator one(opt.sets[s], opt.max_ways);
            one.setWarmup(true);
            for (uint64_t i = w.begin; i < w.begin + w.warmup; ++i)
                one.access(trace[i] >> 6);
            one.setWarmup(false);
            for (uint64_t i = w.begin + w.warmup; i < w.end(); ++i)
                one.access(trace[i] >> 6);
            manual.merge(one);
        }
        EXPECT_EQ(result.merged[s].accesses(), manual.accesses());
        EXPECT_EQ(result.merged[s].coldMisses(), manual.coldMisses());
        EXPECT_EQ(result.merged[s].distanceHistogram(),
                  manual.distanceHistogram());
        for (uint32_t ways = 1; ways <= opt.max_ways; ++ways)
            EXPECT_DOUBLE_EQ(result.missRatio(s, ways),
                             manual.missRatio(ways));
    }
    EXPECT_EQ(result.measured_records, 6000u);
    EXPECT_EQ(result.fetched_records, 7500u);
}

TEST(SampleStudy, DeterministicAcrossWorkerCounts)
{
    auto trace = makeTrace(60'000, 23);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);
    auto plan = SamplePlan::build("systematic:windows=12,len=2k",
                                  index->size());
    ASSERT_TRUE(plan.ok());

    StudyOptions one;
    one.threads = 1;
    StudyOptions many;
    many.threads = 8;
    auto a = study::runSampleStudy(index, plan.value(), one);
    auto b = study::runSampleStudy(index, plan.value(), many);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().windowsCrc(), b.value().windowsCrc());
    EXPECT_EQ(a.value().histCrc(), b.value().histCrc());
    for (size_t s = 0; s < a.value().sets.size(); ++s)
        for (uint32_t w = 1; w <= a.value().max_ways; ++w)
            EXPECT_DOUBLE_EQ(a.value().missRatio(s, w),
                             b.value().missRatio(s, w));
}

TEST(SampleStudy, DecodesAFractionOfTheFullPass)
{
    if (!obs::enabled())
        GTEST_SKIP() << "observability disabled";
    auto trace = makeTrace(200'000, 31);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    // Tiny cache so the full pass cannot ride the sampled run's blocks.
    core::IndexOptions iopt;
    iopt.cache_bytes = 0;
    auto index = core::AtcIndex::openOrThrow(store, iopt);

    // 8 windows of ~1.5k fetched records each: ~6% of the trace.
    auto plan = SamplePlan::build(
        "systematic:windows=8,len=1330,warmup=166", index->size());
    ASSERT_TRUE(plan.ok());
    StudyOptions opt;
    opt.sets = {256};
    auto sampled = study::runSampleStudy(index, plan.value(), opt);
    ASSERT_TRUE(sampled.ok());
    auto reference = study::runFullReference(index, opt);
    ASSERT_TRUE(reference.ok());

    ASSERT_GT(sampled.value().decoded_bytes, 0);
    ASSERT_GT(reference.value().decoded_bytes, 0);
    // Frame granularity rounds each window up to whole frames, so the
    // sampled fraction exceeds the 6% record share — but it must stay
    // far below a full decode.
    EXPECT_LT(sampled.value().decoded_bytes,
              reference.value().decoded_bytes / 2);
    EXPECT_LT(sampled.value().decoded_frames,
              reference.value().decoded_frames);
    // And the estimate the cheap pass produced is a real estimate.
    EXPECT_NEAR(sampled.value().missRatio(0, 4),
                reference.value().missRatio(0, 4), 0.1);
}

TEST(SampleStudy, LossySeekApproximationIsBounded)
{
    auto trace = makeTrace(80'000, 47);
    core::AtcOptions copt = makeOptions(core::Mode::Lossy);
    auto store = writeContainer(trace, copt);
    auto index = core::AtcIndex::openOrThrow(store);
    ASSERT_EQ(index->mode(), core::Mode::Lossy);

    // Starts deliberately off the 1000-record interval grid.
    auto plan = SamplePlan::build(
        "explicit:at=1500+33333+60001,len=4000,warmup=400",
        index->size());
    ASSERT_TRUE(plan.ok());

    StudyOptions range;
    range.sets = {256};
    StudyOptions seek = range;
    seek.fetch = Fetch::kSeek;
    auto exact = study::runSampleStudy(index, plan.value(), range);
    auto approx = study::runSampleStudy(index, plan.value(), seek);
    ASSERT_TRUE(exact.ok() && approx.ok());

    // kRange is record-exact; kSeek lands each window on the
    // containing interval boundary — earlier by less than one interval.
    for (const auto &w : approx.value().windows) {
        EXPECT_LE(w.actual_begin, w.window.begin);
        EXPECT_LT(w.window.begin - w.actual_begin,
                  copt.lossy.interval_len);
    }
    for (const auto &w : exact.value().windows)
        EXPECT_EQ(w.actual_begin, w.window.begin);

    // The shifted windows still estimate the same cache behaviour:
    // the perturbation stays well under the sampling error budget.
    for (uint32_t ways = 1; ways <= range.max_ways; ++ways)
        EXPECT_NEAR(approx.value().missRatio(0, ways),
                    exact.value().missRatio(0, ways), 0.05);
}

TEST(SampleStudy, ServedBackendMatchesLocalExactly)
{
    auto trace = makeTrace(50'000, 59);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);

    serve::TraceServer server;
    ASSERT_TRUE(server.addContainer("t", store).ok());
    ASSERT_TRUE(server.start().ok());
    ASSERT_NE(server.port(), 0);

    auto plan = SamplePlan::build("systematic:windows=10,len=1500",
                                  index->size());
    ASSERT_TRUE(plan.ok());
    StudyOptions opt;
    opt.sets = {64, 512};
    opt.threads = 4;
    opt.pipeline_depth = 3;

    auto local = study::runSampleStudy(index, plan.value(), opt);
    ASSERT_TRUE(local.ok()) << local.status().message();
    auto served = study::runSampleStudyServed(
        "127.0.0.1", server.port(), "t", plan.value(), opt);
    ASSERT_TRUE(served.ok()) << served.status().message();
    server.stop();

    // Byte-identical window records, identical merged histograms.
    ASSERT_EQ(local.value().windows.size(),
              served.value().windows.size());
    for (size_t i = 0; i < local.value().windows.size(); ++i) {
        EXPECT_EQ(local.value().windows[i].crc,
                  served.value().windows[i].crc);
        EXPECT_EQ(local.value().windows[i].actual_begin,
                  served.value().windows[i].actual_begin);
    }
    EXPECT_EQ(local.value().windowsCrc(), served.value().windowsCrc());
    EXPECT_EQ(local.value().histCrc(), served.value().histCrc());
    for (size_t s = 0; s < opt.sets.size(); ++s)
        for (uint32_t w = 1; w <= opt.max_ways; ++w)
            EXPECT_DOUBLE_EQ(local.value().missRatio(s, w),
                             served.value().missRatio(s, w));
}

TEST(SampleStudy, DealtWindowsMatchSerialOnALopsidedTrace)
{
    auto trace = makeLopsidedTrace(80'000, 67);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);
    serve::TraceServer server;
    ASSERT_TRUE(server.addContainer("t", store).ok());
    ASSERT_TRUE(server.start().ok());

    // 37 windows: no worker count tried below divides them evenly.
    auto plan = SamplePlan::build("systematic:windows=37,len=1k,warmup=128",
                                  index->size());
    ASSERT_TRUE(plan.ok());
    StudyOptions serial;
    serial.threads = 1;
    auto ref = study::runSampleStudy(index, plan.value(), serial);
    ASSERT_TRUE(ref.ok()) << ref.status().message();

    for (size_t threads : {1, 3, 4, 8}) {
        StudyOptions opt;
        opt.threads = threads;
        opt.pipeline_depth = 3;
        auto local = study::runSampleStudy(index, plan.value(), opt);
        auto served = study::runSampleStudyServed(
            "127.0.0.1", server.port(), "t", plan.value(), opt);
        for (const auto *run : {&local, &served}) {
            ASSERT_TRUE(run->ok())
                << threads << " threads: " << run->status().message();
            const study::StudyResult &r = run->value();
            EXPECT_EQ(r.windowsCrc(), ref.value().windowsCrc()) << threads;
            EXPECT_EQ(r.histCrc(), ref.value().histCrc()) << threads;
            ASSERT_EQ(r.windows.size(), ref.value().windows.size());
            for (size_t i = 0; i < r.windows.size(); ++i) {
                EXPECT_EQ(r.windows[i].window.begin,
                          plan.value().windows()[i].begin);
                EXPECT_EQ(r.windows[i].miss_ratio,
                          ref.value().windows[i].miss_ratio);
            }
        }
    }
    server.stop();
}

TEST(SampleStudy, ConcurrentStudiesOnOneBorrowedPoolKeepTheirOwnDealers)
{
    auto trace = makeLopsidedTrace(80'000, 71);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);
    auto plan_a = SamplePlan::build(
        "systematic:windows=37,len=1k,warmup=128", index->size());
    auto plan_b = SamplePlan::build("uniform:windows=23,len=1500,seed=3",
                                    index->size());
    ASSERT_TRUE(plan_a.ok() && plan_b.ok());
    StudyOptions serial;
    serial.threads = 1;
    auto ref_a = study::runSampleStudy(index, plan_a.value(), serial);
    auto ref_b = study::runSampleStudy(index, plan_b.value(), serial);
    ASSERT_TRUE(ref_a.ok() && ref_b.ok());

    parallel::ThreadPool pool(3);
    StudyOptions shared;
    shared.pool = &pool;
    for (int round = 0; round < 4; ++round) {
        util::StatusOr<study::StudyResult> a = util::Status::error("unset");
        util::StatusOr<study::StudyResult> b = util::Status::error("unset");
        std::thread other([&] {
            b = study::runSampleStudy(index, plan_b.value(), shared);
        });
        a = study::runSampleStudy(index, plan_a.value(), shared);
        other.join();
        ASSERT_TRUE(a.ok()) << a.status().message();
        ASSERT_TRUE(b.ok()) << b.status().message();
        EXPECT_EQ(a.value().windowsCrc(), ref_a.value().windowsCrc());
        EXPECT_EQ(a.value().histCrc(), ref_a.value().histCrc());
        EXPECT_EQ(b.value().windowsCrc(), ref_b.value().windowsCrc());
        EXPECT_EQ(b.value().histCrc(), ref_b.value().histCrc());
    }
}

TEST(SampleStudy, CorruptFrameFailsTheStudyAndStopsTheDealing)
{
    // "store" frames are their raw bytes, so a flip in the middle of
    // one frame's payload fails exactly the windows that read it.
    auto trace = makeTrace(40'000, 73);
    core::AtcOptions copt = makeOptions(core::Mode::Lossless);
    copt.pipeline.codec = "store";
    auto store = writeContainer(trace, copt);
    std::vector<uint8_t> chunk = store.chunkBytes(0);
    const comp::StreamLayout layout = test::layoutOf(chunk);
    const size_t f = layout.frames.size() / 2;
    chunk[test::payloadStart(layout, f) + layout.frames[f].comp_size / 2] ^=
        0x10;
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    auto index = core::AtcIndex::openOrThrow(bad);
    auto plan = SamplePlan::build("systematic:windows=40,len=500,warmup=0",
                                  index->size());
    ASSERT_TRUE(plan.ok());
    const size_t n = plan.value().windows().size();

    // The first window in plan order that reads the flipped frame, and
    // the Status a plain read of it fails with.
    size_t first_bad = n;
    util::Status expected;
    for (size_t i = 0; i < n && first_bad == n; ++i) {
        const study::SampleWindow &w = plan.value().windows()[i];
        std::vector<uint64_t> records;
        util::Status st = index->cursor()->readRange(w.begin, w.end(),
                                                     records);
        if (!st.ok()) {
            first_bad = i;
            expected = st;
        }
    }
    ASSERT_GT(first_bad, 0u);
    ASSERT_LT(first_bad, n - 1);

    for (size_t threads : {1, 4}) {
        StudyOptions opt;
        opt.threads = threads;
        const int64_t before =
            obs::Registry::global().snapshot().value("study.windows");
        auto run = study::runSampleStudy(index, plan.value(), opt);
        const int64_t dealt =
            obs::Registry::global().snapshot().value("study.windows") -
            before;
        ASSERT_FALSE(run.ok()) << threads;
        EXPECT_EQ(run.status().message(), expected.message()) << threads;
        if (!obs::enabled())
            continue;
        // One worker stops at the failing window; more workers each
        // finish at most the window in hand, and none takes another.
        if (threads == 1) {
            EXPECT_EQ(dealt, static_cast<int64_t>(first_bad));
        }
        EXPECT_LT(dealt, static_cast<int64_t>(n)) << threads;
    }
}

TEST(SampleStudy, RejectsBadGeometryAndEmptyPlans)
{
    auto trace = makeTrace(10'000, 3);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);
    auto plan = SamplePlan::build("systematic:windows=2,len=100",
                                  index->size());
    ASSERT_TRUE(plan.ok());

    StudyOptions bad;
    bad.sets = {100};  // not a power of two
    EXPECT_FALSE(study::runSampleStudy(index, plan.value(), bad).ok());
    StudyOptions none;
    none.sets = {};
    EXPECT_FALSE(study::runSampleStudy(index, plan.value(), none).ok());
}

TEST(SampleStudy, ShutDownBorrowedPoolIsAnErrorStatus)
{
    auto trace = makeTrace(50'000, 5);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::openOrThrow(store);
    auto plan = SamplePlan::build("systematic:windows=8,len=1000",
                                  index->size());
    ASSERT_TRUE(plan.ok());

    parallel::ThreadPool pool(2);
    pool.shutdown();
    StudyOptions opt;
    opt.pool = &pool;
    util::StatusOr<study::StudyResult> run = util::Status::error("unset");
    EXPECT_NO_THROW(run = study::runSampleStudy(index, plan.value(), opt));
    ASSERT_FALSE(run.ok());
    EXPECT_NE(run.status().message().find("shut down"), std::string::npos)
        << run.status().message();
}

} // namespace
} // namespace atc

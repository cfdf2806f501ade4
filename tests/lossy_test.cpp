/**
 * @file
 * Tests for the lossy phase-based codec: chunk/imitate decisions, the
 * myopic-interval fix, and the properties the paper's evaluation
 * relies on (length preservation, locality preservation).
 */

#include <gtest/gtest.h>

#include <set>

#include "atc/atc.hpp"
#include "cache/stack_sim.hpp"
#include "trace/suite.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** Lossy options with the per-chunk pipeline the encoder is given. */
core::AtcOptions
testParams(uint64_t interval_len)
{
    core::AtcOptions p;
    p.mode = core::Mode::Lossy;
    p.lossy.interval_len = interval_len;
    p.pipeline.buffer_addrs = std::max<uint64_t>(interval_len / 4, 16);
    p.pipeline.codec_block = 64 * 1024;
    return p;
}

/** Run the encoder over a trace and return (store, records, stats). */
struct EncodeResult
{
    core::MemoryStore store;
    std::vector<core::IntervalRecord> records;
    core::LossyStats stats;
};

EncodeResult
encode(const std::vector<uint64_t> &trace, const core::AtcOptions &params)
{
    EncodeResult r;
    core::LossyEncoder enc(params.lossy, params.pipeline, r.store);
    for (uint64_t a : trace)
        enc.code(a);
    enc.finish();
    r.records = enc.records();
    r.stats = enc.stats();
    return r;
}

/** Complete @p r into a container with its INFO and read it back
 *  through a cursor, as every lossy read does. */
std::vector<uint64_t>
decode(EncodeResult &r, const core::AtcOptions &params,
       const core::IndexOptions &iopt = {})
{
    core::writeContainerInfo(r.store, comp::makeCodec(params.pipeline.codec),
                             core::Mode::Lossy, params.pipeline,
                             r.stats.addresses, &params.lossy,
                             r.stats.chunks_created, &r.records);
    auto index = core::AtcIndex::openOrThrow(r.store, iopt);
    return trace::collect(*index->cursor());
}

TEST(Lossy, FirstIntervalAlwaysChunk)
{
    auto params = testParams(100);
    std::vector<uint64_t> trace(100, 5);
    auto r = encode(trace, params);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].kind, core::IntervalRecord::Kind::Chunk);
    EXPECT_EQ(r.stats.chunks_created, 1u);
}

TEST(Lossy, RandomIntervalsImitateFirstChunk)
{
    // The paper's Figure 8 scenario: random values; all intervals look
    // like the first one, so exactly one chunk is created.
    auto params = testParams(10000);
    util::Rng rng(1);
    std::vector<uint64_t> trace(100000);
    for (auto &v : trace)
        v = rng.next();
    auto r = encode(trace, params);
    EXPECT_EQ(r.stats.intervals, 10u);
    EXPECT_EQ(r.stats.chunks_created, 1u);
    EXPECT_EQ(r.stats.imitated, 9u);
    // Compression ratio ~10 as in the paper's example.
    double ratio = 8.0 * trace.size() / r.store.totalBytes();
    EXPECT_GT(ratio, 8.0);
    EXPECT_LT(ratio, 12.0);
}

TEST(Lossy, LengthAlwaysPreserved)
{
    // Sequence length is one of the two properties the paper demands
    // of lossy compression (§5).
    for (size_t len : {size_t(1), size_t(99), size_t(100), size_t(101),
                       size_t(1234), size_t(10000)}) {
        auto params = testParams(100);
        util::Rng rng(len);
        std::vector<uint64_t> trace(len);
        for (auto &v : trace)
            v = rng.next() >> 20;
        auto r = encode(trace, params);
        EXPECT_EQ(decode(r, params).size(), len) << "len " << len;
    }
}

TEST(Lossy, PartialFinalIntervalStoredExactly)
{
    auto params = testParams(1000);
    util::Rng rng(2);
    std::vector<uint64_t> trace(2500);
    for (auto &v : trace)
        v = rng.next();
    auto r = encode(trace, params);
    auto back = decode(r, params);
    ASSERT_EQ(back.size(), trace.size());
    // The final 500 addresses form a partial interval: stored lossless.
    for (size_t i = 2000; i < 2500; ++i)
        EXPECT_EQ(back[i], trace[i]) << i;
}

TEST(Lossy, DistinctPhasesGetDistinctChunks)
{
    // Two alternating phases with structurally different histograms:
    // uniform-random vs single-hot-address intervals.
    auto params = testParams(1000);
    util::Rng rng(3);
    std::vector<uint64_t> trace;
    for (int phase = 0; phase < 10; ++phase) {
        for (int i = 0; i < 1000; ++i) {
            trace.push_back(phase % 2 ? 0xAAAA000000ull
                                      : (rng.next() >> 10));
        }
    }
    auto r = encode(trace, params);
    // One chunk per distinct phase, then reuse.
    EXPECT_EQ(r.stats.chunks_created, 2u);
    EXPECT_EQ(r.stats.imitated, 8u);
}

TEST(Lossy, UnstableTraceCreatesManyChunks)
{
    // Every interval gets its own structure: imitation never fires.
    auto params = testParams(500);
    std::vector<uint64_t> trace;
    util::Rng rng(4);
    for (int interval = 0; interval < 8; ++interval) {
        // Alternate structurally different interval shapes: the
        // fraction of repeated addresses varies per interval.
        for (int i = 0; i < 500; ++i) {
            bool repeat = static_cast<int>(rng.below(8)) < interval;
            trace.push_back(repeat ? 0x5000 : rng.next());
        }
    }
    auto r = encode(trace, params);
    EXPECT_GT(r.stats.chunks_created, 4u);
}

TEST(Lossy, TranslationReusesChunkAcrossRegions)
{
    // Same temporal structure in two disjoint regions (the paper's
    // F2xx/F3xx example, scaled): one chunk + translated imitations.
    auto params = testParams(4096);
    std::vector<uint64_t> trace;
    for (int region = 0; region < 6; ++region) {
        uint64_t base = (0xF2ull + region) << 32;
        for (int i = 0; i < 4096; ++i)
            trace.push_back(base + i);
    }
    auto r = encode(trace, params);
    EXPECT_EQ(r.stats.chunks_created, 1u);
    EXPECT_EQ(r.stats.imitated, 5u);

    // The imitation must be exact here: translation rewrites the
    // region byte, and lower planes are identical.
    auto back = decode(r, params);
    EXPECT_EQ(back, trace);
}

TEST(Lossy, MyopicIntervalProblemMitigated)
{
    // §5's motivating example: random accesses over N distinct
    // addresses with intervals shorter than the footprint. Without
    // translations the compressed trace collapses to the first
    // interval's footprint; with translations the footprint stays
    // comparable.
    const uint64_t N = 4096;
    auto params = testParams(1024); // interval << footprint
    util::Rng rng(5);
    std::vector<uint64_t> trace(16 * 1024);
    for (auto &v : trace)
        v = 0x7000000 + rng.below(N);

    auto r = encode(trace, params);
    auto back = decode(r, params);
    std::set<uint64_t> unique_exact(trace.begin(), trace.end());
    std::set<uint64_t> unique_lossy(back.begin(), back.end());
    EXPECT_GT(unique_lossy.size(), unique_exact.size() / 3);

    // Ablation: translations disabled (Figure 4's setting) collapses
    // the footprint to roughly one interval's worth.
    auto params_no_trans = params;
    params_no_trans.lossy.translate = false;
    auto r2 = encode(trace, params_no_trans);
    auto back2 = decode(r2, params_no_trans);
    std::set<uint64_t> unique_no_trans(back2.begin(), back2.end());
    EXPECT_LT(unique_no_trans.size(), unique_lossy.size());
}

TEST(Lossy, MissRatiosPreservedOnStationaryTrace)
{
    // The paper's core accuracy claim (Figure 3): cache miss ratios of
    // the regenerated trace track the exact trace.
    const auto &bench = trace::benchmarkByName("429.mcf");
    auto trace_data = trace::collectFilteredTrace(bench, 100000, 7);
    auto params = testParams(2000);
    auto r = encode(trace_data, params);
    auto back = decode(r, params);
    ASSERT_EQ(back.size(), trace_data.size());

    for (uint32_t sets : {64u, 256u}) {
        cache::StackSimulator exact(sets, 8), lossy(sets, 8);
        for (uint64_t a : trace_data)
            exact.access(a);
        for (uint64_t a : back)
            lossy.access(a);
        for (uint32_t w : {1u, 2u, 4u, 8u}) {
            EXPECT_NEAR(lossy.missRatio(w), exact.missRatio(w), 0.12)
                << "sets " << sets << " ways " << w;
        }
    }
}

TEST(Lossy, ChunkTableEvictionBounded)
{
    // More distinct phases than table entries: the encoder must not
    // grow its table beyond the configured bound (it keeps creating
    // chunks instead).
    auto params = testParams(256);
    params.lossy.chunk_table = 2;
    util::Rng rng(8);
    std::vector<uint64_t> trace;
    for (int phase = 0; phase < 12; ++phase) {
        // Cycle through 3 structurally distinct phases with period 3;
        // with a 2-entry table the oldest is always gone.
        int kind = phase % 3;
        for (int i = 0; i < 256; ++i) {
            switch (kind) {
              case 0:
                trace.push_back(rng.next());
                break;
              case 1:
                trace.push_back(0x1234);
                break;
              default:
                trace.push_back(i % 2 ? 0x8888 : rng.next());
                break;
            }
        }
    }
    auto r = encode(trace, params);
    auto back = decode(r, params);
    EXPECT_EQ(back.size(), trace.size());
    EXPECT_GE(r.stats.chunks_created, 4u);
}

TEST(Lossy, EpsilonZeroDisablesImitation)
{
    auto params = testParams(500);
    params.lossy.epsilon = 0.0;
    util::Rng rng(9);
    std::vector<uint64_t> trace(5000);
    for (auto &v : trace)
        v = rng.next();
    auto r = encode(trace, params);
    // Random intervals are never *exactly* at distance < 0.
    EXPECT_EQ(r.stats.chunks_created, r.stats.intervals);
}

TEST(Lossy, DecoderCacheSmallerThanChunkCount)
{
    // Force chunk reloads: a 1-byte budget degenerates the index's
    // shared chunk cache to one resident chunk per shard.
    auto params = testParams(512);
    core::IndexOptions iopt;
    iopt.cache_bytes = 1;
    std::vector<uint64_t> trace;
    util::Rng rng(10);
    for (int phase = 0; phase < 8; ++phase) {
        for (int i = 0; i < 512; ++i)
            trace.push_back(phase % 2 ? 0xBEEF : rng.next());
    }
    auto r = encode(trace, params);
    EXPECT_EQ(decode(r, params, iopt).size(), trace.size());
}

} // namespace
} // namespace atc

/**
 * @file
 * Random-access API tests: AtcIndex open/validation, AtcCursor seek
 * edges (record 0, last record, exact buffer/frame and interval
 * boundaries, seek past end), seek+read parity against a sequential
 * reference at every tested offset, readRange record-exactness in both
 * modes, a decode-counting codec proving that readRange decodes only
 * the frames covering the slice (and that opening an index decodes
 * nothing), corrupt-index
 * rejection at open, and N threads sharing one AtcIndex through
 * private cursors (the TSan target). The shared decoded-block cache
 * suite proves results are budget-independent (disabled/tiny/large),
 * that repeated seeks into a cache-resident working set decode zero
 * frames (pooled cursors too), that eviction races under a starved
 * budget stay coherent (TSan again), and that a pooled lossy readRange
 * runs covering-chunk decodes concurrently on the pool while staying
 * record-exact.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "compress/codec.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

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
makeOptions(core::Mode mode, const std::string &codec = "bwc")
{
    core::AtcOptions opt;
    opt.mode = mode;
    // Small buffers and blocks so a modest trace spans many transform
    // buffers and many codec frames — the geometry seek must get right.
    opt.pipeline.buffer_addrs = 777;
    opt.pipeline.codec = codec;
    opt.pipeline.codec_block = 4096;
    opt.lossy.interval_len = 1000;
    opt.lossy.epsilon = 0.5; // force some imitated intervals
    return opt;
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

/** Sequentially decode the whole container — the parity reference. */
std::vector<uint64_t>
reference(core::MemoryStore &store)
{
    core::AtcReader reader(store);
    return trace::collect(reader);
}

// ------------------------------------------------------------- lossless

TEST(LosslessSeek, SeekReadParityAtEveryTestedOffset)
{
    auto trace = makeTrace(10'000, 21);
    auto opt = makeOptions(core::Mode::Lossless);
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);
    ASSERT_EQ(ref, trace);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    EXPECT_EQ(cursor->size(), trace.size());

    // Edges: first, last, end, exact transform-buffer boundaries
    // (buffer_addrs = 777) and a spread of interior offsets — forward
    // and backward seeks interleaved.
    std::vector<uint64_t> offsets = {0,    1,    776,  777,  778,
                                     1554, 4242, 9998, 9999, 10'000,
                                     3,    7770, 42};
    for (uint64_t off : offsets) {
        auto s = cursor->seek(off);
        ASSERT_TRUE(s.ok()) << off << ": " << s.message();
        EXPECT_EQ(cursor->tell(), off);
        uint64_t buf[257];
        size_t got = cursor->read(buf, 257);
        size_t expect =
            std::min<size_t>(257, trace.size() - static_cast<size_t>(off));
        ASSERT_EQ(got, expect) << off;
        for (size_t i = 0; i < got; ++i)
            ASSERT_EQ(buf[i], ref[static_cast<size_t>(off) + i])
                << "offset " << off << " + " << i;
        EXPECT_EQ(cursor->tell(), off + got);
    }

    // Seeking past the end is an out-of-range Status, not a throw.
    auto bad = cursor->seek(trace.size() + 1);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("out of range"), std::string::npos);

    // Seek to end: clean end-of-trace.
    ASSERT_TRUE(cursor->seek(trace.size()).ok());
    uint64_t v;
    EXPECT_EQ(cursor->read(&v, 1), 0u);

    // Seek back to 0 restores the full sequential path.
    ASSERT_TRUE(cursor->seek(0).ok());
    EXPECT_EQ(trace::collect(*cursor), ref);
}

TEST(LosslessSeek, ReadRangeMatchesSequentialSlices)
{
    auto trace = makeTrace(8'000, 22);
    auto opt = makeOptions(core::Mode::Lossless);
    auto store = writeContainer(trace, opt);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();

    ASSERT_TRUE(cursor->seek(5000).ok()); // readRange must not disturb it

    std::vector<uint64_t> out;
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, 1},      {0, 80},     {776, 778}, {777, 1554},
        {4000, 4080}, {7999, 8000}, {0, 8000},  {3000, 3000}};
    for (auto [b, e] : ranges) {
        auto s = cursor->readRange(b, e, out);
        ASSERT_TRUE(s.ok()) << b << ":" << e << " " << s.message();
        ASSERT_EQ(out.size(), e - b);
        for (size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], trace[static_cast<size_t>(b) + i])
                << "range " << b << ":" << e << " + " << i;
    }

    // Bad ranges are Status errors.
    EXPECT_FALSE(cursor->readRange(10, 5, out).ok());
    EXPECT_FALSE(cursor->readRange(0, 8001, out).ok());
    auto oor = cursor->readRange(8000, 8001, out);
    ASSERT_FALSE(oor.ok());
    EXPECT_NE(oor.message().find("out of range"), std::string::npos);

    // The cursor's own position was untouched throughout.
    EXPECT_EQ(cursor->tell(), 5000u);
    uint64_t v;
    ASSERT_EQ(cursor->read(&v, 1), 1u);
    EXPECT_EQ(v, trace[5000]);
}

// --------------------------------------------------------------- lossy

TEST(LossySeek, LandsOnIntervalBoundaryAndReadsFromThere)
{
    auto trace = makeTrace(10'500, 23);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossy));
    auto ref = reference(store); // the *regenerated* (lossy) trace

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    const auto &starts = index.value()->recordStarts();
    ASSERT_GT(starts.size(), 2u); // several intervals
    auto cursor = index.value()->cursor();

    for (uint64_t off : {uint64_t(0), uint64_t(1), uint64_t(999),
                         uint64_t(1000), uint64_t(1001), uint64_t(5500),
                         uint64_t(10'499), uint64_t(10'500)}) {
        auto s = cursor->seek(off);
        ASSERT_TRUE(s.ok()) << off << ": " << s.message();
        // Lossy seek lands on the containing interval boundary at or
        // before the request (interval_len = 1000).
        uint64_t landed = cursor->tell();
        EXPECT_LE(landed, off);
        EXPECT_TRUE(std::find(starts.begin(), starts.end(), landed) !=
                    starts.end())
            << landed;
        if (off < cursor->size())
            EXPECT_EQ(off - landed, off % 1000);
        uint64_t buf[123];
        size_t got = cursor->read(buf, 123);
        size_t expect = std::min<size_t>(
            123, ref.size() - static_cast<size_t>(landed));
        ASSERT_EQ(got, expect) << off;
        for (size_t i = 0; i < got; ++i)
            ASSERT_EQ(buf[i], ref[static_cast<size_t>(landed) + i]) << off;
    }

    auto bad = cursor->seek(10'501);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("out of range"), std::string::npos);
}

TEST(LossySeek, ReadRangeIsRecordExactAndPositionPreserving)
{
    auto trace = makeTrace(9'500, 24);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossy));
    auto ref = reference(store);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    ASSERT_TRUE(cursor->seek(2500).ok());
    uint64_t mark = cursor->tell(); // interval boundary at 2000
    uint64_t probe[7];
    ASSERT_EQ(cursor->read(probe, 7), 7u); // now mid-interval

    std::vector<uint64_t> out;
    for (auto [b, e] :
         std::vector<std::pair<uint64_t, uint64_t>>{{0, 50},
                                                    {995, 1005},
                                                    {4242, 5777},
                                                    {9499, 9500}}) {
        auto s = cursor->readRange(b, e, out);
        ASSERT_TRUE(s.ok()) << s.message();
        ASSERT_EQ(out.size(), e - b);
        for (size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], ref[static_cast<size_t>(b) + i])
                << "range " << b << ":" << e;
    }

    // Streaming resumes exactly where it was (mid-interval).
    uint64_t v;
    ASSERT_EQ(cursor->read(&v, 1), 1u);
    EXPECT_EQ(v, ref[static_cast<size_t>(mark) + 7]);
}

// --------------------------------------------- decode-counting codec

/** "store" wrapper counting decompressBlock calls process-wide, and
 *  the most that ran at once (proof of pool fan-out). */
class CountingCodec : public comp::Codec
{
  public:
    std::string name() const override { return "countstore"; }

    void
    compressBlock(const uint8_t *data, size_t n,
                  util::ByteSink &out) const override
    {
        out.write(data, n);
    }

    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        ++decodes;
        int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        if (await_overlap) {
            // Hold the decode (at most a few seconds) until a second
            // one runs beside it: a caller that helps its pool could
            // otherwise run every tiny decode itself, one after another,
            // before a worker picks one up.
            auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (max_in_flight.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            if (max_in_flight.load() < 2)
                await_overlap = false; // no overlap: fail, not stall
        }
        out.resize(raw_size);
        in.readExact(out.data(), out.size());
        --in_flight;
    }

    static inline std::atomic<uint64_t> decodes{0};
    static inline std::atomic<int> in_flight{0};
    static inline std::atomic<int> max_in_flight{0};
    static inline std::atomic<bool> await_overlap{false};
};

void
registerCountingCodec()
{
    static bool once = [] {
        comp::CodecRegistry::instance().add(
            "countstore", [](const comp::CodecSpec &)
                -> util::StatusOr<std::shared_ptr<const comp::Codec>> {
                return std::shared_ptr<const comp::Codec>(
                    std::make_shared<CountingCodec>());
            });
        return true;
    }();
    (void)once;
}

TEST(RangedDecode, OnePercentSliceDecodesOnlyCoveringFrames)
{
    registerCountingCodec();
    auto trace = makeTrace(100'000, 25);
    auto opt = makeOptions(core::Mode::Lossless, "countstore");
    auto store = writeContainer(trace, opt);

    // Baseline: opening any reader decodes the (tiny, legacy-framed)
    // INFO payload; measure that fixed cost first so the chunk-frame
    // accounting below is exact.
    CountingCodec::decodes = 0;
    { core::ContainerInfo probe = core::readContainerInfo(store); }
    uint64_t info_decodes = CountingCodec::decodes.load();
    ASSERT_GE(info_decodes, 1u);

    // Full sequential decode: every chunk frame decodes exactly once.
    CountingCodec::decodes = 0;
    auto ref = reference(store);
    ASSERT_EQ(ref, trace);
    uint64_t full_decodes = CountingCodec::decodes.load() - info_decodes;
    ASSERT_GT(full_decodes, 50u); // the geometry gives many frames

    // Opening the index scans frame headers only — not one chunk
    // payload is decoded (only the unavoidable INFO payload is).
    CountingCodec::decodes = 0;
    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    EXPECT_EQ(CountingCodec::decodes.load(), info_decodes);

    // A 1% slice decodes exactly the frames covering its transform
    // buffers — computed from the same public geometry the cursor
    // uses — and returns bytes identical to the sequential decode.
    uint64_t begin = 50'000, end = 51'000;
    const auto &idx = *index.value();
    const comp::StreamLayout &layout = idx.chunkLayout(0);
    uint64_t b0 = idx.bufferOf(begin), b1 = idx.bufferOf(end - 1);
    uint64_t raw0 = idx.bufferRawOffset(b0);
    uint64_t raw1 = idx.bufferRawOffset(b1 + 1);
    size_t covering = layout.frameContaining(raw1 - 1) -
                      layout.frameContaining(raw0) + 1;

    auto cursor = idx.cursor();
    CountingCodec::decodes = 0;
    std::vector<uint64_t> out;
    auto s = cursor->readRange(begin, end, out);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(CountingCodec::decodes.load(), covering);
    ASSERT_LT(covering, full_decodes / 10); // it IS a small subset
    ASSERT_EQ(out.size(), end - begin);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], ref[static_cast<size_t>(begin) + i]);

    // Seeking decodes only from the containing frame onward, bounded
    // by the frames after the seek point, never the whole stream.
    CountingCodec::decodes = 0;
    ASSERT_TRUE(cursor->seek(begin).ok());
    uint64_t buf[100];
    ASSERT_EQ(cursor->read(buf, 100), 100u);
    EXPECT_LT(CountingCodec::decodes.load(), full_decodes / 10);
    for (size_t i = 0; i < 100; ++i)
        ASSERT_EQ(buf[i], ref[static_cast<size_t>(begin) + i]);
}

// ----------------------------------------------------- corruption

TEST(IndexOpen, CorruptFrameIndexRejected)
{
    auto trace = makeTrace(20'000, 26);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless, "store"));

    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto chunk = store.chunkBytes(0);
        ASSERT_GT(chunk.size(), 5u);
        chunk[chunk.size() - 5] ^= 0x01; // inside the stored index
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    auto index = core::AtcIndex::open(bad);
    ASSERT_FALSE(index.ok());
    EXPECT_NE(index.status().message().find("index"), std::string::npos)
        << index.status().message();
}

TEST(IndexOpen, CrossLinkedChunkRejected)
{
    // INFO of a long trace over the chunk of a short one: the scanned
    // layout cannot cover the recorded count.
    auto long_store = writeContainer(makeTrace(30'000, 27),
                                     makeOptions(core::Mode::Lossless));
    auto short_store = writeContainer(makeTrace(6'000, 27),
                                      makeOptions(core::Mode::Lossless));
    core::MemoryStore franken;
    {
        auto sink = franken.createInfo();
        sink->write(long_store.infoBytes().data(),
                    long_store.infoBytes().size());
        auto csink = franken.createChunk(0);
        csink->write(short_store.chunkBytes(0).data(),
                     short_store.chunkBytes(0).size());
    }
    auto index = core::AtcIndex::open(franken);
    ASSERT_FALSE(index.ok());
    EXPECT_NE(index.status().message().find("truncated"),
              std::string::npos)
        << index.status().message();
}

// ------------------------------------------------------- empty trace

TEST(CursorEdge, EmptyTrace)
{
    std::vector<uint64_t> empty;
    auto store = writeContainer(empty, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    EXPECT_EQ(cursor->size(), 0u);
    ASSERT_TRUE(cursor->seek(0).ok());
    uint64_t v;
    EXPECT_EQ(cursor->read(&v, 1), 0u);
    EXPECT_FALSE(cursor->seek(1).ok());
    std::vector<uint64_t> out;
    EXPECT_TRUE(cursor->readRange(0, 0, out).ok());
    EXPECT_TRUE(out.empty());
}

// --------------------------------------------- concurrent index sharing

class SharedIndex : public testing::TestWithParam<core::Mode>
{
};

/**
 * Hammer one shared index from @p kThreads threads — each with its own
 * cursor and offsets, seeks, streaming reads and ranged reads
 * interleaved — and return how many threads saw a wrong byte or a
 * failed call.
 */
int
stressCursors(const std::shared_ptr<const core::AtcIndex> &index,
              const std::vector<uint64_t> &ref)
{
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto cursor = index->cursor();
            util::Rng rng(1000 + static_cast<uint64_t>(t));
            std::vector<uint64_t> out;
            for (int round = 0; round < 12; ++round) {
                uint64_t off = rng.below(ref.size());
                if (!cursor->seek(off).ok()) {
                    ++failures;
                    return;
                }
                uint64_t landed = cursor->tell();
                uint64_t buf[64];
                size_t got = cursor->read(
                    buf, std::min<size_t>(64, ref.size() -
                                                  static_cast<size_t>(
                                                      landed)));
                for (size_t i = 0; i < got; ++i) {
                    if (buf[i] != ref[static_cast<size_t>(landed) + i]) {
                        ++failures;
                        return;
                    }
                }
                uint64_t b = rng.below(ref.size());
                uint64_t e = std::min<uint64_t>(ref.size(),
                                                b + 1 + rng.below(2000));
                if (!cursor->readRange(b, e, out).ok() ||
                    out.size() != e - b) {
                    ++failures;
                    return;
                }
                for (size_t i = 0; i < out.size(); ++i) {
                    if (out[i] != ref[static_cast<size_t>(b) + i]) {
                        ++failures;
                        return;
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    return failures.load();
}

TEST_P(SharedIndex, ManyThreadsManyCursorsOneIndex)
{
    auto trace = makeTrace(40'000, 28);
    auto store = writeContainer(trace, makeOptions(GetParam()));
    auto ref = reference(store);

    auto opened = core::AtcIndex::open(store);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(stressCursors(opened.value(), ref), 0);
}

TEST_P(SharedIndex, TinyCacheEvictionRacesStayCoherent)
{
    // A near-zero budget keeps the shared cache under constant
    // eviction pressure while 8 threads insert and hit concurrently —
    // the TSan target for the cache itself, and a liveness check that
    // eviction never yanks a block out from under a reader.
    auto trace = makeTrace(40'000, 35);
    auto opt = makeOptions(GetParam());
    opt.lossy.epsilon = 0.0; // many distinct chunks -> shard collisions
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);

    // Big enough to retain individual blocks (frames are 4 KiB raw
    // here, chunks 8 KB), far too small for the working set.
    core::IndexOptions iopt;
    iopt.cache_bytes = 16 * 1024;
    auto opened = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(stressCursors(opened.value(), ref), 0);
    core::BlockCacheStats stats = GetParam() == core::Mode::Lossless
                                      ? opened.value()->frameCache().stats()
                                      : opened.value()->chunkCache().stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 8u); // one pinned survivor per shard at most
}

INSTANTIATE_TEST_SUITE_P(Modes, SharedIndex,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

// ------------------------------------------------- shared block cache

class CacheBudget : public testing::TestWithParam<core::Mode>
{
};

TEST_P(CacheBudget, ResultsIdenticalAcrossBudgets)
{
    // Disabled, pathologically tiny and comfortably large budgets must
    // be observationally identical — the cache is a pure accelerator.
    auto trace = makeTrace(20'000, 34);
    auto store = writeContainer(trace, makeOptions(GetParam()));
    auto ref = reference(store);

    for (size_t cache_bytes :
         {size_t(0), size_t(1), size_t(64) << 20}) {
        core::IndexOptions iopt;
        iopt.cache_bytes = cache_bytes;
        auto opened = core::AtcIndex::open(store, iopt);
        ASSERT_TRUE(opened.ok()) << opened.status().message();
        auto index = opened.value();
        EXPECT_EQ(index->frameCache().enabled(), cache_bytes != 0);
        EXPECT_EQ(index->chunkCache().enabled(), cache_bytes != 0);

        auto cursor = index->cursor();
        util::Rng rng(77); // same access pattern for every budget
        std::vector<uint64_t> out;
        for (int round = 0; round < 16; ++round) {
            uint64_t off = rng.below(ref.size());
            ASSERT_TRUE(cursor->seek(off).ok()) << cache_bytes;
            uint64_t landed = cursor->tell();
            uint64_t buf[128];
            size_t want = std::min<size_t>(
                128, ref.size() - static_cast<size_t>(landed));
            ASSERT_EQ(cursor->read(buf, want), want) << cache_bytes;
            for (size_t i = 0; i < want; ++i)
                ASSERT_EQ(buf[i], ref[static_cast<size_t>(landed) + i])
                    << "budget " << cache_bytes << " offset " << off;
            uint64_t b = rng.below(ref.size());
            uint64_t e = std::min<uint64_t>(ref.size(),
                                            b + 1 + rng.below(3000));
            ASSERT_TRUE(cursor->readRange(b, e, out).ok()) << cache_bytes;
            ASSERT_EQ(out.size(), e - b);
            for (size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], ref[static_cast<size_t>(b) + i])
                    << "budget " << cache_bytes << " range " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, CacheBudget,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

TEST(SeekHot, CacheResidentWorkingSetDecodesZeroFrames)
{
    registerCountingCodec();
    auto trace = makeTrace(60'000, 30);
    auto opt = makeOptions(core::Mode::Lossless, "countstore");
    auto store = writeContainer(trace, opt);

    auto opened = core::AtcIndex::open(store); // default budget
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();
    auto cursor = index->cursor();

    // Warm: the first visit of each offset decodes its covering frames
    // into the shared cache.
    const uint64_t offsets[] = {777, 12'345, 23'456, 41'000, 59'000};
    uint64_t buf[500];
    for (uint64_t off : offsets) {
        ASSERT_TRUE(cursor->seek(off).ok());
        ASSERT_EQ(cursor->read(buf, 500), 500u);
    }
    ASSERT_GT(index->frameCache().stats().entries, 0u);

    // Hot: the working set is cache-resident — repeated seeks decode
    // zero frames, from this cursor, from a second cursor sharing the
    // index (that is what "shared" buys), and from a pooled cursor
    // (a pass started by a seek queues no frames ahead).
    auto cursor2 = index->cursor();
    parallel::ThreadPool pool(4);
    core::CursorOptions copt;
    copt.pool = &pool;
    auto pooled = index->cursor(copt);
    CountingCodec::decodes = 0;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t off : offsets) {
            for (core::AtcCursor *c :
                 {cursor.get(), cursor2.get(), pooled.get()}) {
                ASSERT_TRUE(c->seek(off).ok());
                ASSERT_EQ(c->read(buf, 500), 500u);
            }
        }
    }
    EXPECT_EQ(CountingCodec::decodes.load(), 0u);
    EXPECT_GT(index->frameCache().stats().hits, 0u);
}

// ----------------------------------------- pooled readRange (parallel)

TEST(PooledRange, ParallelReaderCursorMatchesSerial)
{
    auto trace = makeTrace(60'000, 29);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));

    core::AtcReader reader(store, core::kDefaultDecodedCacheBytes, 4);
    auto cursor = reader.cursor();

    std::vector<uint64_t> out;
    auto s = cursor->readRange(12'345, 23'456, out);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_EQ(out.size(), 23'456u - 12'345u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], trace[12'345 + i]);

    // The reader's own sequential stream is unaffected.
    EXPECT_EQ(trace::collect(reader), trace);
}

TEST(PooledRange, LossyRangeSpanningManyChunksUsesPoolStaysExact)
{
    registerCountingCodec();
    auto trace = makeTrace(9'000, 33);
    auto opt = makeOptions(core::Mode::Lossy, "countstore");
    opt.lossy.epsilon = 0.0; // every interval becomes its own chunk
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);

    auto opened = core::AtcIndex::open(store);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();
    ASSERT_GE(index->info().chunk_count, 4u);

    parallel::ThreadPool pool(4);
    core::CursorOptions copt;
    copt.pool = &pool;
    auto pooled = index->cursor(copt);

    // Cold: the distinct covering chunks decode on the pool, several
    // at once (proved by the codec seeing two decodes in flight),
    // record-exactly.
    CountingCodec::max_in_flight = 0;
    CountingCodec::await_overlap = true;
    std::vector<uint64_t> out;
    auto s = pooled->readRange(500, 8'500, out);
    CountingCodec::await_overlap = false;
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_EQ(out.size(), 8'000u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], ref[500 + i]);
    EXPECT_GE(CountingCodec::max_in_flight.load(), 2)
        << "the covering chunks never decoded concurrently";

    // Warm: the covering chunks are cache-resident — nothing decodes.
    uint64_t before = CountingCodec::decodes.load();
    ASSERT_TRUE(pooled->readRange(500, 8'500, out).ok());
    EXPECT_EQ(CountingCodec::decodes.load(), before);

    // Parity against a serial, cache-disabled cursor over a fresh
    // index — the pooled fan-out is a pure accelerator.
    core::IndexOptions iopt;
    iopt.cache_bytes = 0;
    auto serial_idx = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(serial_idx.ok());
    auto serial = serial_idx.value()->cursor();
    std::vector<uint64_t> serial_out;
    ASSERT_TRUE(serial->readRange(500, 8'500, serial_out).ok());
    EXPECT_EQ(out, serial_out);
}

} // namespace
} // namespace atc

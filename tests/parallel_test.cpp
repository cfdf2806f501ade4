/**
 * @file
 * Parallel subsystem tests: channel/pool primitives, parallel-vs-serial
 * byte identity of containers, pooled-reader round trips across thread
 * counts (the shared block cache off, so only the readahead window
 * feeds the pool), the pooled full scan's cache policy, mid-stream
 * cancellation without deadlock, cursors outliving their reader,
 * rejection of pre-v3 containers, seekable-framing corruption probes
 * (mismatched compressed lengths, truncated/corrupt frame index), a
 * structural proof that lossless decode overlaps frame decodes, and
 * the integrity satellites (CRC trailer verification, a pooled chunk
 * or frame error repeated on retry, empty/truncated chunk files), and
 * the caller helping its pool: runOne(), shutdown while a caller
 * helps, and a pooled full read that completes with the pool's only
 * worker parked.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <thread>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "cache/filter.hpp"
#include "parallel/channel.hpp"
#include "parallel/parallel_atc.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

// ---------------------------------------------------------------- channel

TEST(Channel, FifoOrderAndDrainAfterClose)
{
    parallel::Channel<int> ch(4);
    EXPECT_TRUE(ch.push(1));
    EXPECT_TRUE(ch.push(2));
    EXPECT_TRUE(ch.push(3));
    ch.close();
    EXPECT_FALSE(ch.push(4)); // rejected after close...
    int v = 0;
    EXPECT_TRUE(ch.pop(v));   // ...but the queue still drains
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(ch.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(ch.pop(v));
    EXPECT_EQ(v, 3);
    EXPECT_FALSE(ch.pop(v));
}

TEST(Channel, BlockedProducerUnblocksOnClose)
{
    parallel::Channel<int> ch(1);
    ASSERT_TRUE(ch.push(0));
    std::atomic<bool> returned{false};
    std::thread producer([&] {
        ch.push(1); // blocks: channel full
        returned = true;
    });
    ch.close();
    producer.join(); // deadlock here = test timeout
    EXPECT_TRUE(returned);
}

TEST(Channel, ManyProducersManyConsumers)
{
    parallel::Channel<int> ch(8);
    constexpr int kPerProducer = 500;
    std::atomic<long> sum{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < 3; ++p) {
        threads.emplace_back([&ch, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ch.push(p * kPerProducer + i);
        });
    }
    for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&ch, &sum] {
            int v;
            while (ch.pop(v))
                sum += v;
        });
    }
    threads[0].join();
    threads[1].join();
    threads[2].join();
    ch.close();
    threads[3].join();
    threads[4].join();
    threads[5].join();
    long n = 3L * kPerProducer;
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, AsyncResultsAndExceptions)
{
    parallel::ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    auto ok = pool.async([] { return 6 * 7; });
    auto bad = pool.async([]() -> int { util::raise("worker failure"); });
    EXPECT_EQ(ok.get(), 42);
    EXPECT_THROW(bad.get(), util::Error);
}

TEST(ThreadPool, ShutdownRunsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        parallel::ThreadPool pool(2, 64);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 32);
}

/** Occupy @p pool's only worker until @p gate opens. */
void
parkTheWorker(parallel::ThreadPool &pool, std::latch &gate,
              std::atomic<int> *ran = nullptr)
{
    std::atomic<bool> parked{false};
    pool.submit([&parked, &gate, ran] {
        parked = true;
        gate.wait();
        if (ran != nullptr)
            ++*ran;
    });
    while (!parked)
        std::this_thread::yield();
}

TEST(ThreadPool, RunOneRunsAQueuedTaskOnTheCaller)
{
    parallel::ThreadPool pool(1, 8);
    std::latch gate(1);
    parkTheWorker(pool, gate);
    EXPECT_FALSE(pool.runOne()) << "the queue is empty";

    std::thread::id ran_on;
    auto result = pool.async([&ran_on] {
        ran_on = std::this_thread::get_id();
        return 42;
    });
    EXPECT_TRUE(pool.runOne());
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_EQ(result.get(), 42);
    EXPECT_FALSE(pool.runOne());
    gate.count_down();
}

TEST(ThreadPool, ShutdownWhileACallerHelpsRunsEveryTask)
{
    std::atomic<int> ran{0};
    parallel::ThreadPool pool(1, 64);
    std::latch gate(1);
    parkTheWorker(pool, gate, &ran);
    for (int i = 0; i < 32; ++i)
        pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ++ran;
        });
    auto last = pool.async([&ran] { ++ran; });
    // The helper drains the queue through wait() while shutdown()
    // closes it and waits for the parked worker.
    std::thread helper([&] { pool.wait(last); });
    std::thread closer([&] { pool.shutdown(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    gate.count_down();
    helper.join();
    closer.join();
    EXPECT_EQ(ran.load(), 1 + 32 + 1);
    EXPECT_FALSE(pool.runOne());
    EXPECT_THROW(pool.async([] {}), util::Error);
}

// --------------------------------------------------------- test fixtures

/** Addresses with enough self-similarity that lossy mode imitates. */
std::vector<uint64_t>
makeTrace(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> addrs;
    addrs.reserve(n);
    uint64_t base = 0x10000000;
    for (size_t i = 0; i < n; ++i) {
        base += rng.below(512);
        addrs.push_back(base & 0x3FFFFFFF);
    }
    return addrs;
}

core::AtcOptions
makeOptions(core::Mode mode, size_t n, const std::string &codec = "bwc")
{
    core::AtcOptions opt;
    opt.mode = mode;
    opt.pipeline.codec = codec;
    opt.pipeline.codec_block = 16 * 1024;
    opt.pipeline.buffer_addrs = n / 16 + 1;
    opt.lossy.interval_len = n / 8 + 1;
    return opt;
}

core::MemoryStore
writeSerial(const std::vector<uint64_t> &addrs,
            const core::AtcOptions &opt)
{
    core::MemoryStore store;
    core::AtcWriter writer(store, opt);
    writer.write(addrs.data(), addrs.size());
    writer.close();
    return store;
}

core::MemoryStore
writeParallel(const std::vector<uint64_t> &addrs,
              const core::AtcOptions &opt, size_t threads)
{
    core::MemoryStore store;
    parallel::ParallelOptions popt;
    popt.threads = threads;
    parallel::ParallelAtcWriter writer(store, opt, popt);
    // Feed in many odd-sized batches to exercise dispatch boundaries.
    size_t pos = 0;
    while (pos < addrs.size()) {
        size_t take =
            std::min<size_t>(4096 + pos % 513, addrs.size() - pos);
        writer.write(addrs.data() + pos, take);
        pos += take;
    }
    writer.close();
    return store;
}

void
expectStoresIdentical(const core::MemoryStore &a,
                      const core::MemoryStore &b)
{
    ASSERT_EQ(a.chunkCount(), b.chunkCount());
    EXPECT_EQ(a.infoBytes(), b.infoBytes());
    for (size_t id = 0; id < a.chunkCount(); ++id)
        EXPECT_EQ(a.chunkBytes(static_cast<uint32_t>(id)),
                  b.chunkBytes(static_cast<uint32_t>(id)))
            << "chunk " << id;
}

class ThreadSweep : public testing::TestWithParam<size_t>
{
};

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         testing::Values(size_t(1), size_t(2),
                                         size_t(8)));

// ------------------------------------------- parallel-vs-serial identity

TEST_P(ThreadSweep, LosslessContainerByteIdentical)
{
    auto addrs = makeTrace(60'000, 21);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    auto serial = writeSerial(addrs, opt);
    auto par = writeParallel(addrs, opt, GetParam());
    expectStoresIdentical(serial, par);
}

TEST_P(ThreadSweep, LossyContainerByteIdentical)
{
    auto addrs = makeTrace(80'000, 22);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    opt.lossy.epsilon = 0.0; // every interval becomes a chunk
    auto serial = writeSerial(addrs, opt);
    auto par = writeParallel(addrs, opt, GetParam());
    ASSERT_GT(serial.chunkCount(), 1u); // the sweep must shard work
    expectStoresIdentical(serial, par);
}

TEST_P(ThreadSweep, LossyImitationByteIdentical)
{
    auto addrs = makeTrace(80'000, 24);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    opt.lossy.epsilon = 100.0; // every later interval imitates
    auto serial = writeSerial(addrs, opt);
    auto par = writeParallel(addrs, opt, GetParam());
    expectStoresIdentical(serial, par);
}

TEST(ParallelAtc, ParameterizedCodecSpecByteIdentical)
{
    // A registry spec with parameters must parallelize unchanged.
    auto addrs = makeTrace(40'000, 23);
    auto opt =
        makeOptions(core::Mode::Lossy, addrs.size(), "bwc:block=32k");
    auto serial = writeSerial(addrs, opt);
    auto par = writeParallel(addrs, opt, 4);
    expectStoresIdentical(serial, par);
}

// ------------------------------------------------------------ round trip

TEST_P(ThreadSweep, LosslessRoundTripThroughParallelReader)
{
    auto addrs = makeTrace(50'000, 31);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    auto store = writeParallel(addrs, opt, GetParam());

    parallel::ParallelOptions popt;
    popt.threads = GetParam();
    parallel::ParallelAtcReader reader(store, popt);
    EXPECT_EQ(reader.mode(), core::Mode::Lossless);
    EXPECT_EQ(reader.count(), addrs.size());
    std::vector<uint64_t> back = trace::collect(reader);
    EXPECT_EQ(back, addrs);
}

TEST_P(ThreadSweep, LossyRoundTripMatchesSerialReader)
{
    auto addrs = makeTrace(80'000, 32);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    auto store = writeParallel(addrs, opt, GetParam());

    // Lossy regeneration is not the input, but serial and parallel
    // readers must regenerate the identical stream.
    core::AtcReader serial(store);
    std::vector<uint64_t> expect = trace::collect(serial);
    EXPECT_EQ(expect.size(), addrs.size());

    parallel::ParallelOptions popt;
    popt.threads = GetParam();
    parallel::ParallelAtcReader reader(store, popt);
    std::vector<uint64_t> got = trace::collect(reader);
    EXPECT_EQ(got, expect);
}

// ----------------------------------------------------------- cancelation

TEST(ParallelAtc, AbandonedWriterDoesNotDeadlock)
{
    auto addrs = makeTrace(60'000, 41);
    for (int round = 0; round < 3; ++round) {
        core::MemoryStore store;
        parallel::ParallelOptions popt;
        popt.threads = 4;
        auto opt = makeOptions(core::Mode::Lossy, addrs.size());
        parallel::ParallelAtcWriter writer(store, opt, popt);
        writer.write(addrs.data(), addrs.size() / 2);
        // No close(): destruction must drain the pool and return.
    }
    SUCCEED();
}

TEST_P(ThreadSweep, AbandonedReaderDoesNotDeadlock)
{
    auto addrs = makeTrace(60'000, 42);
    auto lossless = writeSerial(
        addrs, makeOptions(core::Mode::Lossless, addrs.size()));
    auto lossy = writeSerial(
        addrs, makeOptions(core::Mode::Lossy, addrs.size()));
    for (int round = 0; round < 3; ++round) {
        for (core::MemoryStore *store : {&lossless, &lossy}) {
            core::AtcReader reader(*store, 0, GetParam());
            uint64_t buf[256];
            ASSERT_GT(reader.read(buf, 256), 0u);
            // A pooled cursor with its own window in flight, too (a
            // pass from record 0 decodes ahead; one after a seek would
            // not).
            auto cursor = reader.cursor();
            ASSERT_GT(cursor->read(buf, 256), 0u);
            // Abandon both mid-stream: the windows still hold pending
            // decodes, and destruction must not wait on them forever.
        }
    }
    SUCCEED();
}

TEST_P(ThreadSweep, PooledReaderRoundTripsWithCacheOff)
{
    // cache_bytes = 0: the readahead window alone keeps the pool fed.
    auto addrs = makeTrace(80'000, 33);
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        auto store = writeSerial(addrs, makeOptions(mode, addrs.size()));
        core::AtcReader serial(store);
        std::vector<uint64_t> expect = trace::collect(serial);
        if (mode == core::Mode::Lossless)
            EXPECT_EQ(expect, addrs);
        core::AtcReader pooled(store, 0, GetParam());
        EXPECT_EQ(trace::collect(pooled), expect) << int(mode);
    }
}

TEST_P(ThreadSweep, FullPooledScanDoesNotFillTheFrameCache)
{
    auto addrs = makeTrace(60'000, 34);
    auto store = writeSerial(
        addrs, makeOptions(core::Mode::Lossless, addrs.size()));
    core::AtcReader reader(store, core::kDefaultDecodedCacheBytes,
                           GetParam());
    // Warm a seek working set, then scan the whole trace.
    std::vector<uint64_t> slice;
    ASSERT_TRUE(reader.cursor()->readRange(20'000, 30'000, slice).ok());
    core::BlockCacheStats before = reader.index()->frameCache().stats();
    ASSERT_GT(before.entries, 0u);
    EXPECT_EQ(trace::collect(reader), addrs);
    core::BlockCacheStats after = reader.index()->frameCache().stats();
    EXPECT_LE(after.entries, before.entries);
    EXPECT_LE(after.bytes, before.bytes);
    EXPECT_EQ(after.insertions, before.insertions);
    EXPECT_GT(after.hits, before.hits); // ...but it did read the cache
}

TEST_P(ThreadSweep, CursorsOutliveTheirReader)
{
    // Cursors minted by a pooled reader share its pool, so they stay
    // usable — mid-window, too — after the reader is gone.
    auto addrs = makeTrace(60'000, 35);
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        auto store = writeSerial(addrs, makeOptions(mode, addrs.size()));
        core::AtcReader serial(store);
        std::vector<uint64_t> expect = trace::collect(serial);

        auto reader = std::make_unique<core::AtcReader>(
            store, core::kDefaultDecodedCacheBytes, GetParam());
        auto cursor = reader->cursor();
        uint64_t buf[512];
        ASSERT_EQ(cursor->read(buf, 512), 512u);
        reader.reset();

        std::vector<uint64_t> rest(expect.size() - 512);
        size_t got = 0;
        while (got < rest.size()) {
            size_t n = cursor->read(rest.data() + got, rest.size() - got);
            ASSERT_GT(n, 0u);
            got += n;
        }
        EXPECT_TRUE(std::equal(rest.begin(), rest.end(),
                               expect.begin() + 512))
            << int(mode);
        std::vector<uint64_t> slice;
        ASSERT_TRUE(cursor->readRange(1000, 41'000, slice).ok());
        EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                               expect.begin() + 1000));
    }
}

// ------------------------------------------------- integrity satellites

TEST(Integrity, StoreCodecCorruptionIsLoud)
{
    // "store" has no per-block CRC; before the stream trailer, a flip
    // in the payload came back as silently corrupt data.
    auto addrs = makeTrace(20'000, 51);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto chunk = store.chunkBytes(0);
        chunk[chunk.size() / 2] ^= 0x01; // middle of the payload
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    core::AtcReader reader(bad);
    std::vector<uint64_t> out(addrs.size() + 1);
    size_t got = 0;
    util::Status failure;
    for (;;) {
        auto r = reader.tryRead(out.data() + got, out.size() - got);
        if (!r.ok()) {
            failure = r.status();
            break;
        }
        if (r.value() == 0)
            break;
        got += r.value();
    }
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("CRC"), std::string::npos)
        << failure.message();
}

TEST(Integrity, MissingCrcTrailerRejected)
{
    auto addrs = makeTrace(10'000, 52);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto chunk = store.chunkBytes(0);
        chunk.resize(chunk.size() - 4); // drop the trailer
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    EXPECT_THROW(
        {
            core::AtcReader reader(bad);
            uint64_t v;
            while (reader.decode(&v)) {
            }
        },
        util::Error);
}

TEST(Integrity, EmptyChunkInMemoryStoreRejected)
{
    auto addrs = makeTrace(20'000, 53);
    auto store = writeSerial(
        addrs, makeOptions(core::Mode::Lossy, addrs.size()));
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        for (size_t id = 0; id < store.chunkCount(); ++id) {
            auto csink = bad.createChunk(static_cast<uint32_t>(id));
            if (id != 0) {
                const auto &bytes =
                    store.chunkBytes(static_cast<uint32_t>(id));
                csink->write(bytes.data(), bytes.size());
            }
            // chunk 0 stays zero-length
        }
    }
    // The index scan at open touches every chunk, so the empty file is
    // rejected before the first read (older layouts surfaced it on the
    // read path) — either way it must be loud and name the problem.
    auto reader = core::AtcReader::open(bad);
    util::Status failure;
    if (!reader.ok()) {
        failure = reader.status();
    } else {
        uint64_t buf[1024];
        auto r = reader.value()->tryRead(buf, 1024);
        ASSERT_FALSE(r.ok());
        failure = r.status();
    }
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("empty"), std::string::npos)
        << failure.message();
}

TEST(Integrity, ZeroLengthChunkFileRejected)
{
    namespace fs = std::filesystem;
    std::string dir = testing::TempDir() + "/atc_zero_chunk";
    fs::remove_all(dir);

    auto addrs = makeTrace(20'000, 54);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    {
        core::AtcWriter writer(dir, opt);
        writer.write(addrs.data(), addrs.size());
        writer.close();
    }
    // Truncate the single chunk file to zero bytes, as a partially
    // written directory would leave it.
    { std::ofstream trunc(dir + "/1.bwc", std::ios::trunc); }

    auto reader = core::AtcReader::open(dir);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("empty"), std::string::npos)
        << reader.status().message();
    fs::remove_all(dir);
}

TEST(Integrity, TruncatedContainerReportsCount)
{
    // INFO records more values than the chunks can deliver: the reader
    // must say so rather than end cleanly short. Build it by pairing a
    // long trace's INFO with a short trace's chunk.
    auto short_trace = makeTrace(10'000, 55);
    auto long_trace = makeTrace(30'000, 55);
    auto opt = makeOptions(core::Mode::Lossless, long_trace.size());
    auto short_store = writeSerial(short_trace, opt);
    auto long_store = writeSerial(long_trace, opt);

    core::MemoryStore frankenstein;
    {
        auto sink = frankenstein.createInfo();
        sink->write(long_store.infoBytes().data(),
                    long_store.infoBytes().size());
        auto csink = frankenstein.createChunk(0);
        csink->write(short_store.chunkBytes(0).data(),
                     short_store.chunkBytes(0).size());
    }
    // The index cross-checks the scanned chunk layout against the
    // INFO count at open, so the mismatch is rejected before any
    // decode.
    auto reader = core::AtcReader::open(frankenstein);
    util::Status failure;
    if (!reader.ok()) {
        failure = reader.status();
    } else {
        std::vector<uint64_t> buf(4096);
        for (;;) {
            auto r = reader.value()->tryRead(buf.data(), buf.size());
            if (!r.ok()) {
                failure = r.status();
                break;
            }
            if (r.value() == 0)
                break;
        }
    }
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("truncated"), std::string::npos)
        << failure.message();
}

// ------------------------------------------------- container versions

TEST(ContainerVersions, UnsupportedVersionsRejected)
{
    // The version byte follows the 4-byte magic. Only v3 is read, so
    // any other version must fail open loudly.
    auto addrs = makeTrace(5'000, 71);
    auto store = writeSerial(
        addrs, makeOptions(core::Mode::Lossless, addrs.size()));
    ASSERT_EQ(store.infoBytes().at(4), core::kContainerVersion);
    for (uint8_t version : {uint8_t(1), uint8_t(2), uint8_t(4)}) {
        core::MemoryStore old;
        {
            auto info = store.infoBytes();
            info[4] = version;
            auto sink = old.createInfo();
            sink->write(info.data(), info.size());
            auto chunk = old.createChunk(0);
            chunk->write(store.chunkBytes(0).data(),
                         store.chunkBytes(0).size());
        }
        auto reader = core::AtcReader::open(old);
        ASSERT_FALSE(reader.ok()) << int(version);
        EXPECT_NE(reader.status().message().find(
                      "unsupported ATC container version"),
                  std::string::npos)
            << reader.status().message();
    }
}

// ---------------------------------------- seekable corruption detection

/** Drain @p store through the serial reader; return the failure. */
util::Status
drainExpectFailure(core::MemoryStore &store)
{
    auto reader = core::AtcReader::open(store);
    if (!reader.ok())
        return reader.status();
    std::vector<uint64_t> buf(4096);
    for (;;) {
        auto r = reader.value()->tryRead(buf.data(), buf.size());
        if (!r.ok())
            return r.status();
        if (r.value() == 0)
            return util::Status();
    }
}

/** Copy @p store with chunk 0 replaced by @p chunk. */
core::MemoryStore
withChunk0(const core::MemoryStore &store, std::vector<uint8_t> chunk)
{
    core::MemoryStore out;
    {
        auto sink = out.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto csink = out.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    return out;
}

/** Decode one LEB128 varint of @p bytes at @p pos; advances pos. */
uint64_t
varintAt(const std::vector<uint8_t> &bytes, size_t &pos)
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        uint8_t b = bytes.at(pos++);
        v |= static_cast<uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
    }
}

TEST(SeekableIntegrity, MismatchedCompressedLengthRejected)
{
    // Bump the first frame's declared compressed length by one: the
    // codec consumes fewer bytes than declared, which a reader must
    // reject as corruption instead of silently resyncing.
    auto addrs = makeTrace(20'000, 81);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    auto chunk = store.chunkBytes(0);
    size_t pos = 0;
    uint64_t header = varintAt(chunk, pos); // raw_size + 1
    ASSERT_GT(header, 0u);
    size_t comp_pos = pos;
    uint64_t comp = varintAt(chunk, pos);
    ASSERT_EQ(comp, header - 1); // "store" writes the block verbatim
    ASSERT_NE(chunk[comp_pos] & 0x7F, 0x7F); // +1 stays one byte
    chunk[comp_pos] += 1;

    auto bad = withChunk0(store, chunk);
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    // Detected either as a compressed-length mismatch while decoding
    // or — since the open-time index scan — as the scanned headers
    // disagreeing with the stored frame index.
    EXPECT_TRUE(failure.message().find("length") != std::string::npos ||
                failure.message().find("index") != std::string::npos)
        << failure.message();
}

TEST(SeekableIntegrity, TruncatedFrameIndexRejected)
{
    auto addrs = makeTrace(20'000, 82);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    // Chop the CRC trailer plus a slice of the frame index.
    auto chunk = store.chunkBytes(0);
    ASSERT_GT(chunk.size(), 12u);
    chunk.resize(chunk.size() - 10);

    auto bad = withChunk0(store, chunk);
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("index"), std::string::npos)
        << failure.message();
}

TEST(SeekableIntegrity, CorruptFrameIndexEntryRejected)
{
    auto addrs = makeTrace(20'000, 83);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    // Flip the low bit of the index's last varint byte (just before
    // the 4-byte CRC trailer): the recorded sizes no longer match the
    // frames actually decoded.
    auto chunk = store.chunkBytes(0);
    ASSERT_GT(chunk.size(), 5u);
    chunk[chunk.size() - 5] ^= 0x01;

    auto bad = withChunk0(store, chunk);
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("index"), std::string::npos)
        << failure.message();
}

TEST_P(ThreadSweep, PooledReadReportsCrcMismatch)
{
    // Payload corruption under "store" (no per-block checksum) must be
    // caught by the CRC trailer verified across the *reassembled*
    // stream of a pooled sequential read.
    auto addrs = makeTrace(30'000, 84);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);
    auto chunk = store.chunkBytes(0);
    chunk[chunk.size() / 2] ^= 0x01;
    auto bad = withChunk0(store, chunk);

    core::AtcReader reader(bad, core::kDefaultDecodedCacheBytes,
                           GetParam());
    std::vector<uint64_t> buf(4096);
    util::Status failure;
    for (;;) {
        auto r = reader.tryRead(buf.data(), buf.size());
        if (!r.ok()) {
            failure = r.status();
            break;
        }
        if (r.value() == 0)
            break;
    }
    ASSERT_FALSE(failure.ok());
    // Depending on where the flip lands, either the CRC check or a
    // frame-size probe fires; both must be loud.
    EXPECT_TRUE(failure.message().find("CRC") != std::string::npos ||
                failure.message().find("mismatch") != std::string::npos)
        << failure.message();
}

TEST_P(ThreadSweep, PooledLossyReadRepeatsItsChunkError)
{
    // A chunk that fails to decode in the readahead window must fail
    // every retry with the same error, not with a spent future's.
    auto addrs = makeTrace(40'000, 85);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size(), "store");
    opt.lossy.epsilon = 0.0; // every interval becomes a chunk
    auto store = writeSerial(addrs, opt);
    ASSERT_GT(store.chunkCount(), 3u);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        for (uint32_t id = 0; id < store.chunkCount(); ++id) {
            auto chunk = store.chunkBytes(id);
            if (id == 2)
                chunk[chunk.size() / 2] ^= 0x01;
            auto csink = bad.createChunk(id);
            csink->write(chunk.data(), chunk.size());
        }
    }

    core::AtcReader reader(bad, 0, GetParam());
    std::vector<uint64_t> buf(4096);
    util::Status first;
    for (;;) {
        auto r = reader.tryRead(buf.data(), buf.size());
        if (!r.ok()) {
            first = r.status();
            break;
        }
        ASSERT_NE(r.value(), 0u) << "corrupt chunk went unnoticed";
    }
    ASSERT_FALSE(first.ok());
    auto again = reader.tryRead(buf.data(), buf.size());
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().message(), first.message());
}

TEST_P(ThreadSweep, PooledLosslessReadRepeatsItsFrameError)
{
    // A corrupt frame mid-stream fails the pass when the reader reaches
    // it, after the buffers before it are served, and every retry with
    // the same error, not with a spent future's.
    auto addrs = makeTrace(60'000, 86);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    auto store = writeSerial(addrs, opt);
    auto chunk = store.chunkBytes(0);
    chunk[chunk.size() / 2] ^= 0x01;
    auto bad = withChunk0(store, chunk);

    core::AtcReader reader(bad, 0, GetParam());
    std::vector<uint64_t> buf(4096);
    uint64_t served = 0;
    util::Status first;
    for (;;) {
        auto r = reader.tryRead(buf.data(), buf.size());
        if (!r.ok()) {
            first = r.status();
            break;
        }
        ASSERT_NE(r.value(), 0u) << "corrupt frame went unnoticed";
        served += r.value();
    }
    ASSERT_FALSE(first.ok());
    EXPECT_GT(served, 0u) << "buffers before the bad frame are served";
    for (int retry = 0; retry < 2; ++retry) {
        auto again = reader.tryRead(buf.data(), buf.size());
        ASSERT_FALSE(again.ok());
        EXPECT_EQ(again.status().message(), first.message());
    }
}

TEST(ThreadPool, PooledFullReadCompletesWhileTheOnlyWorkerIsBlocked)
{
    // The caller of a pooled full pass runs the queued frame decodes
    // and inverse transforms itself while it waits for them: with the
    // pool's one worker parked, the pass still completes.
    auto addrs = makeTrace(60'000, 87);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    auto store = writeSerial(addrs, opt);
    core::IndexOptions iopt;
    iopt.cache_bytes = 0;
    auto index = core::AtcIndex::openOrThrow(store, iopt);

    // A queue with room for the pass's whole readahead, as AtcReader
    // gives its pool, so no submit waits for the parked worker.
    parallel::ThreadPool pool(1, 64);
    std::latch gate(1);
    parkTheWorker(pool, gate);
    core::CursorOptions copt;
    copt.pool = &pool;
    auto cursor = index->cursor(copt);
    std::vector<uint64_t> out(addrs.size() + 1);
    size_t got = 0;
    while (size_t n = cursor->read(out.data() + got, out.size() - got))
        got += n;
    gate.count_down();
    out.resize(got);
    EXPECT_EQ(out, addrs);
}

// --------------------------------------- block-parallel decode proof

/** "store" clone that records how many decodes run concurrently. */
class SleepyStoreCodec : public comp::StoreCodec
{
  public:
    std::string name() const override { return "zzz"; }

    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        // Long enough that decodes overlap even on a single core.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        comp::StoreCodec::decompressBlock(in, raw_size, out);
        --in_flight;
    }

    static inline std::atomic<int> in_flight{0};
    static inline std::atomic<int> max_in_flight{0};
};

TEST(SeekableDecode, FramesDecodeConcurrently)
{
    comp::CodecRegistry::instance().add(
        "zzz", [](const comp::CodecSpec &)
                   -> util::StatusOr<
                       std::shared_ptr<const comp::Codec>> {
            return std::shared_ptr<const comp::Codec>(
                std::make_shared<SleepyStoreCodec>());
        });

    auto addrs = makeTrace(60'000, 91);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "zzz");
    opt.pipeline.codec_block = 4 * 1024; // many frames
    auto store = writeSerial(addrs, opt);

    SleepyStoreCodec::max_in_flight = 0;
    parallel::ParallelOptions popt;
    popt.threads = 4;
    parallel::ParallelAtcReader reader(store, popt);
    EXPECT_EQ(trace::collect(reader), addrs);
    // The structural claim of seekable framing: several compressed
    // frames in flight at once.
    EXPECT_GE(SleepyStoreCodec::max_in_flight.load(), 2)
        << "block-parallel decode did not overlap frame decodes";
}

// ------------------------------------------------- directory containers

TEST(ParallelAtc, DirectoryContainerInterchangeable)
{
    namespace fs = std::filesystem;
    std::string dir = testing::TempDir() + "/atc_parallel_dir";
    fs::remove_all(dir);

    auto addrs = makeTrace(40'000, 61);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    {
        parallel::ParallelOptions popt;
        popt.threads = 3;
        parallel::ParallelAtcWriter writer(dir, opt, popt);
        writer.write(addrs.data(), addrs.size());
        writer.close();
    }
    // The serial reader consumes the parallel writer's directory...
    core::AtcReader serial(dir);
    std::vector<uint64_t> a = trace::collect(serial);
    // ...and the parallel reader agrees with it, end to end.
    parallel::ParallelAtcReader par(dir);
    std::vector<uint64_t> b = trace::collect(par);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), addrs.size());
    fs::remove_all(dir);
}

// --------------------------------------------------- sharded cache filter

/** Byte addresses spread across many sets, with reuse for hits. */
std::vector<uint64_t>
filterTrace(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> addrs;
    addrs.reserve(n);
    uint64_t base = 0x2000'0000;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(64) == 0)
            base = 0x2000'0000 + (rng.below(32) << 20);
        // Mix of strides and revisits so every set sees hits, misses
        // and evictions.
        addrs.push_back(base + rng.below(1 << 16));
    }
    return addrs;
}

std::vector<uint64_t>
runFilter(const std::vector<uint64_t> &addrs, size_t threads,
          size_t batch, cache::CacheStats *icache = nullptr,
          cache::CacheStats *dcache = nullptr)
{
    std::vector<uint64_t> misses;
    trace::VectorTraceSink sink(misses);
    cache::FilterStage stage(sink);
    parallel::ThreadPool pool(threads);
    if (threads > 1) {
        stage.shard(pool);
        EXPECT_GT(stage.shardCount(), 1u);
    }
    size_t pos = 0;
    while (pos < addrs.size()) {
        size_t take = std::min(batch, addrs.size() - pos);
        stage.write(addrs.data() + pos, take);
        pos += take;
    }
    stage.close();
    if (icache != nullptr)
        *icache = stage.icacheStats();
    if (dcache != nullptr)
        *dcache = stage.dcacheStats();
    return misses;
}

TEST_P(ThreadSweep, ShardedFilterEmitsIdenticalMissStream)
{
    // Batches above the fan-out floor: the sharded path really runs.
    auto addrs = filterTrace(100'000, 31);
    cache::CacheStats serial_d, sharded_d;
    auto serial = runFilter(addrs, 1, 50'000, nullptr, &serial_d);
    auto sharded =
        runFilter(addrs, GetParam(), 50'000, nullptr, &sharded_d);
    EXPECT_EQ(serial, sharded);
    EXPECT_EQ(serial_d.accesses, sharded_d.accesses);
    EXPECT_EQ(serial_d.misses, sharded_d.misses);
    ASSERT_GT(serial.size(), 0u);
}

TEST_P(ThreadSweep, ShardedFilterSmallBatchesStayIdentical)
{
    // Below the fan-out floor the replicas run inline — the verdicts
    // must still match the serial filter exactly.
    auto addrs = filterTrace(20'000, 32);
    auto serial = runFilter(addrs, 1, 777);
    auto sharded = runFilter(addrs, GetParam(), 777);
    EXPECT_EQ(serial, sharded);
}

TEST(ShardedFilter, RefusesNonDecomposableConfigs)
{
    std::vector<uint64_t> misses;
    trace::VectorTraceSink sink(misses);
    parallel::ThreadPool pool(4);

    // An L2 uses a different set mask: shard() must stay serial.
    cache::CacheConfig l1 = cache::CacheConfig::paperL1();
    cache::CacheConfig l2 = l1;
    l2.sets = l1.sets * 8;
    cache::FilterStage with_l2(sink, l1, l2);
    with_l2.shard(pool);
    EXPECT_EQ(with_l2.shardCount(), 0u);

    // RANDOM replacement draws from one RNG stream shared across sets.
    cache::CacheConfig rnd = l1;
    rnd.policy = cache::ReplPolicy::RANDOM;
    cache::FilterStage with_rnd(sink, rnd);
    with_rnd.shard(pool);
    EXPECT_EQ(with_rnd.shardCount(), 0u);

    // Both still filter correctly in serial mode.
    auto addrs = filterTrace(10'000, 33);
    with_l2.write(addrs.data(), addrs.size());
    with_rnd.write(addrs.data(), addrs.size());
    EXPECT_GT(misses.size(), 0u);
}

// ---------------------------------------------------- pooled lossy encode

TEST_P(ThreadSweep, PooledLossySurvivesOddIntervalSlicing)
{
    // interval_len deliberately coprime to every batch size the
    // parallel writer sees, so dispatch boundaries never align with
    // write() calls; the container must stay byte-identical.
    auto addrs = makeTrace(70'000, 23);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    opt.lossy.interval_len = 9973;
    opt.lossy.epsilon = 0.05; // mix of emitted chunks and imitations
    auto serial = writeSerial(addrs, opt);
    auto par = writeParallel(addrs, opt, GetParam());
    expectStoresIdentical(serial, par);
}

TEST_P(ThreadSweep, AbandonedLossyWriterDestructsCleanly)
{
    // Destroy a writer mid-stream with signature work still queued:
    // the pool tasks share ownership of their payloads, so teardown
    // must neither crash nor deadlock (TSan-checked in CI).
    auto addrs = makeTrace(40'000, 24);
    auto opt = makeOptions(core::Mode::Lossy, addrs.size());
    opt.lossy.interval_len = 1013;
    core::MemoryStore store;
    parallel::ParallelOptions popt;
    popt.threads = GetParam();
    {
        parallel::ParallelAtcWriter writer(store, opt, popt);
        writer.write(addrs.data(), addrs.size());
        // no close(): abandoned
    }
    SUCCEED();
}

} // namespace
} // namespace atc

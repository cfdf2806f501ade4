/**
 * @file
 * Parallel subsystem tests: channel/pool primitives, byte identity of
 * containers written inline and on N workers, container bytes pinned
 * as sizes and CRC-32s at every worker count, a failed close latched
 * so a retry writes nothing, pooled-reader round trips across thread
 * counts (the shared block cache off, so only the readahead window
 * feeds the pool), the pooled full scan's cache policy, mid-stream
 * cancellation without deadlock, cursors outliving their reader,
 * rejection of pre-v7 containers, seekable-framing corruption probes
 * (mismatched compressed lengths, truncated/corrupt frame index), a
 * structural proof that lossless decode overlaps frame decodes, and
 * the integrity satellites (per-frame CRC verification, a missing
 * frame index, a pooled chunk or frame error repeated on retry,
 * empty/truncated chunk files), and
 * the caller helping its pool: runOne(), shutdown while a caller
 * helps, and a pooled full read that completes with the pool's only
 * worker parked. The Task cases pin the handle every pooled stage
 * uses: an error repeated on every get(), resolved handles without a
 * pool, a destructor that waits out a running task, a deferred task
 * that never runs unread, and a get() that runs its own task.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/bytesort.hpp"
#include "compress/bwt.hpp"
#include "compress/stream.hpp"
#include "parallel/channel.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/crc32.hpp"
#include "store_frames.hpp"
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

TEST(ThreadPool, TaskResultsAndExceptions)
{
    parallel::ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    parallel::Task<int> ok(&pool, [] { return 6 * 7; });
    parallel::Task<int> bad(&pool,
                            []() -> int { util::raise("worker failure"); });
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
    parallel::Task<int> result(&pool, [&ran_on] {
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
    parallel::Task<void> last(&pool, [&ran] { ++ran; });
    // The helper drains the queue through get() while shutdown()
    // closes it and waits for the parked worker.
    std::thread helper([&] { last.get(); });
    std::thread closer([&] { pool.shutdown(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    gate.count_down();
    helper.join();
    closer.join();
    EXPECT_EQ(ran.load(), 1 + 32 + 1);
    EXPECT_FALSE(pool.runOne());
    EXPECT_THROW(parallel::Task<void>(&pool, [] {}), util::Error);
}

// ------------------------------------------------------------------ task

TEST(Task, ErrorIsRethrownOnEveryGet)
{
    parallel::ThreadPool pool(2);
    std::atomic<int> runs{0};
    parallel::ThreadPool *none = nullptr;
    for (parallel::ThreadPool *p : {&pool, none}) {
        runs = 0;
        parallel::Task<int> task(p, [&runs]() -> int {
            ++runs;
            util::raise("task failure");
        });
        EXPECT_THROW(task.get(), util::Error);
        EXPECT_THROW(task.get(), util::Error) << "the error is kept";
        EXPECT_EQ(runs.load(), 1) << "a retry does not rerun the task";
    }
}

TEST(Task, ResolvedTasksNeedNoPool)
{
    parallel::Task<int> value(42);
    EXPECT_EQ(value.get(), 42);
    EXPECT_EQ(value.get(), 42);
    parallel::Task<void> failed(
        std::make_exception_ptr(std::runtime_error("bad header")));
    EXPECT_THROW(failed.get(), std::runtime_error);
    EXPECT_THROW(failed.get(), std::runtime_error);
}

TEST(Task, DestroyingAHandleWaitsForItsBlockedTask)
{
    parallel::ThreadPool pool(2);
    std::latch gate(1);
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    std::thread releaser;
    {
        parallel::Task<void> task(&pool, [&] {
            started = true;
            gate.wait();
            finished = true;
        });
        while (!started)
            std::this_thread::yield();
        releaser = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            gate.count_down();
        });
    }
    EXPECT_TRUE(finished.load()) << "the handle died before its task";
    releaser.join();
}

TEST(Task, DeferredTaskNeverReadNeverRuns)
{
    std::atomic<bool> ran{false};
    {
        parallel::Task<int> task(nullptr, [&ran] {
            ran = true;
            return 1;
        });
    }
    EXPECT_FALSE(ran.load());

    std::thread::id ran_on;
    parallel::Task<void> read(nullptr, [&ran_on] {
        ran_on = std::this_thread::get_id();
    });
    read.get();
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Task, GetRunsTheTaskOnTheCallerWhenTheOnlyWorkerIsBlocked)
{
    parallel::ThreadPool pool(1, 8);
    std::latch gate(1);
    parkTheWorker(pool, gate);
    parallel::Task<std::thread::id> task(
        &pool, [] { return std::this_thread::get_id(); });
    EXPECT_EQ(task.get(), std::this_thread::get_id());
    gate.count_down();
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
    core::AtcWriter writer(store, opt, threads);
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

// ------------------------------------------- inline-vs-pooled identity

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

// ------------------------------------------------ pooled forward transform

/** Write @p addrs on @p threads workers, in write() calls of 1 and of
 *  odd sizes. */
core::MemoryStore
writeInOddSizes(const std::vector<uint64_t> &addrs,
                const core::AtcOptions &opt, size_t threads)
{
    static const size_t kSizes[] = {1, 1, 3, 4097, 1, 12289, 65521, 7};
    core::MemoryStore store;
    core::AtcWriter writer(store, opt, threads);
    size_t pos = 0;
    for (size_t i = 0; pos < addrs.size(); ++i) {
        size_t take = std::min(kSizes[i % 8], addrs.size() - pos);
        writer.write(addrs.data() + pos, take);
        pos += take;
    }
    writer.close();
    return store;
}

class PooledTransform
    : public testing::TestWithParam<std::tuple<core::Transform, size_t>>
{
};

INSTANTIATE_TEST_SUITE_P(
    TransformsAndBuffers, PooledTransform,
    testing::Combine(testing::Values(core::Transform::None,
                                     core::Transform::Unshuffle,
                                     core::Transform::Bytesort,
                                     core::Transform::Delta),
                     // Neither divides a batch (2^17 addresses or more).
                     testing::Values(size_t(3751), size_t(100'003))));

TEST_P(PooledTransform, ContainersMatchSerialAtEveryThreadCount)
{
    auto [transform, buffer] = GetParam();
    // Ends mid-buffer and mid-batch for both buffer sizes: 80 buffers
    // of 3751 (35 per batch) + 706, or 3 of 100003 (2 per batch) + 777.
    auto addrs = makeTrace(300'786, 61);
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        core::AtcOptions opt;
        opt.mode = mode;
        opt.pipeline.transform = transform;
        opt.pipeline.buffer_addrs = buffer;
        opt.pipeline.codec = "store";
        opt.pipeline.codec_block = 64 * 1024;
        opt.lossy.interval_len = 140'000; // chunks end mid-batch too
        opt.lossy.epsilon = 0.0;
        core::MemoryStore serial = writeInOddSizes(addrs, opt, 0);
        for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)) +
                         ", threads " + std::to_string(threads));
            expectStoresIdentical(serial,
                                  writeInOddSizes(addrs, opt, threads));
        }
        core::AtcReader reader(serial);
        std::vector<uint64_t> back = trace::collect(reader);
        if (mode == core::Mode::Lossless)
            EXPECT_EQ(back, addrs);
        else
            EXPECT_EQ(back.size(), addrs.size());
    }
}

TEST(PooledTransform, AbandonedEncoderWaitsOutItsBatches)
{
    // Three batches of 32 buffers; the pool's only worker is parked,
    // so every transform stays queued until a wait runs it on the
    // caller. The third is still queued when the encoder dies: its
    // destructor must run or wait it out (a task left behind would
    // write into freed arrays once the worker wakes) and drop it.
    auto addrs = makeTrace(3 << 17, 63);
    parallel::ThreadPool pool(1, 16);
    std::latch gate(1);
    parkTheWorker(pool, gate);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    {
        core::TransformEncoder enc(core::Transform::Bytesort, 4096, sink,
                                   &pool);
        enc.write(addrs.data(), addrs.size());
    }
    EXPECT_FALSE(pool.runOne()) << "a transform outlived its encoder";
    gate.count_down();
    // Two batches written: 64 buffers of varint(4096) + 8 * 4096.
    EXPECT_EQ(out.size(), 64u * (2 + 8 * 4096));
}

// ------------------------------------------------- pinned container bytes

/** Size and CRC-32 of one container file. */
struct FilePin
{
    size_t size;
    uint32_t crc;
};

FilePin
pinOf(const std::vector<uint8_t> &bytes)
{
    util::Crc32 crc;
    crc.update(bytes.data(), bytes.size());
    return {bytes.size(), crc.value()};
}

void
expectPinned(const core::MemoryStore &store, FilePin info,
             const std::vector<FilePin> &chunks, size_t threads)
{
    FilePin got = pinOf(store.infoBytes());
    EXPECT_EQ(got.size, info.size) << "INFO at " << threads;
    EXPECT_EQ(got.crc, info.crc) << "INFO at " << threads;
    ASSERT_EQ(store.chunkCount(), chunks.size()) << threads;
    for (uint32_t id = 0; id < chunks.size(); ++id) {
        got = pinOf(store.chunkBytes(id));
        EXPECT_EQ(got.size, chunks[id].size)
            << "chunk " << id << " at " << threads;
        EXPECT_EQ(got.crc, chunks[id].crc)
            << "chunk " << id << " at " << threads;
    }
}

/** The longest RLE1 text among the bwc frames of chunk @p id: each
 *  frame's payload opens with its length. */
uint64_t
longestText(const core::MemoryStore &store, uint32_t id)
{
    const std::vector<uint8_t> bytes = store.chunkBytes(id);
    const comp::StreamLayout layout = test::layoutOf(bytes);
    uint64_t longest = 0;
    for (size_t f = 0; f < layout.frames.size(); ++f) {
        util::MemorySource src(bytes.data() + test::payloadStart(layout, f),
                               layout.frames[f].comp_size);
        longest = std::max(longest, util::readVarint(src));
    }
    return longest;
}

TEST(PinnedBytes, ContainersMatchTheFrozenReferenceAtEveryThreadCount)
{
    // Frozen sizes and CRC-32s of reference containers, recorded from
    // the serial writer. The identity sweeps above compare two runs of
    // one code path, which could drift together; these constants
    // cannot. Since v7 a bwc block is RLE1-coded before its BWT and
    // carries one start row per 2^17 bytes of that text; since v6 each
    // frame's CRC-32 sits in its stream's frame index, and since v5 the
    // INFO payload is framed like a chunk stream.
    auto bwc_trace = makeTrace(60'000, 101);
    auto bwc_opt = makeOptions(core::Mode::Lossless, bwc_trace.size());
    auto big_trace = makeTrace(60'000, 102);
    auto big_opt = makeOptions(core::Mode::Lossless, big_trace.size(),
                               "bwc:block=64k");
    auto chains_trace = makeTrace(240'000, 105);
    auto chains_opt = makeOptions(core::Mode::Lossless, chains_trace.size(),
                                  "bwc:block=1m");
    auto lossy_trace = makeTrace(70'000, 103);
    auto lossy_opt = makeOptions(core::Mode::Lossy, lossy_trace.size());
    lossy_opt.lossy.interval_len = 9973; // 7 full intervals + 189
    lossy_opt.lossy.epsilon = 0.05;      // 3 chunks, 5 imitations

    for (size_t threads : {size_t(0), size_t(1), size_t(2), size_t(8)}) {
        // 30 frames of 16 KiB, the last one 4897 bytes.
        expectPinned(writeParallel(bwc_trace, bwc_opt, threads),
                     {190, 0x60e695e8u}, {{100570, 0x86ecb62bu}},
                     threads);
        // 8 frames of 64 KiB, the last one 21281 bytes.
        expectPinned(writeParallel(big_trace, big_opt, threads),
                     {200, 0x1fbe2bc0u}, {{94541, 0x5ddc1a9fu}},
                     threads);
        // 2 frames, of 1 MiB and 871456 bytes, whose RLE1 texts run
        // past 2^17 bytes: more than one start row in a frame.
        core::MemoryStore chains = writeParallel(chains_trace, chains_opt,
                                                 threads);
        EXPECT_GT(longestText(chains, 0), comp::kBwtChainBytes);
        expectPinned(chains, {199, 0xdcf74b9eu}, {{355722, 0x5bac5f54u}},
                     threads);
        core::MemoryStore lossy;
        {
            core::AtcWriter writer(lossy, lossy_opt, threads);
            writer.write(lossy_trace.data(), lossy_trace.size());
            writer.close();
            EXPECT_EQ(writer.lossyStats().intervals, 8u);
            EXPECT_EQ(writer.lossyStats().imitated, 5u);
        }
        expectPinned(lossy, {3532, 0xa67d4a32u},
                     {{15815, 0x2deb26bcu},
                      {15851, 0xe96c463eu},
                      {549, 0x9a7e77beu}},
                     threads);
    }
}

// ------------------------------------------------------------ failed close

/** A store whose first INFO sink fails its first write, as a full
 *  disk would; later INFO sinks write normally. */
class FailingInfoStore : public core::MemoryStore
{
  public:
    std::unique_ptr<util::ByteSink>
    createInfo() override
    {
        if (failed_)
            return core::MemoryStore::createInfo();
        failed_ = true;
        return std::make_unique<FailingSink>();
    }

  private:
    struct FailingSink : util::ByteSink
    {
        void
        write(const uint8_t *, size_t) override
        {
            util::raise("INFO write failed");
        }
    };

    bool failed_ = false;
};

TEST(FailedClose, IsLatchedAndARetryWritesNothing)
{
    auto addrs = makeTrace(40'000, 104);
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        for (size_t threads : {size_t(0), size_t(4)}) {
            FailingInfoStore store;
            core::AtcWriter writer(store, makeOptions(mode, addrs.size()),
                                   threads);
            writer.write(addrs.data(), addrs.size());
            util::Status first = writer.tryClose();
            ASSERT_FALSE(first.ok());
            EXPECT_NE(first.message().find("INFO write failed"),
                      std::string::npos)
                << first.message();

            std::vector<std::vector<uint8_t>> chunks;
            for (uint32_t id = 0; id < store.chunkCount(); ++id)
                chunks.push_back(store.chunkBytes(id));
            for (int retry = 0; retry < 2; ++retry) {
                util::Status again = writer.tryClose();
                ASSERT_FALSE(again.ok());
                EXPECT_EQ(again.message(), first.message());
                EXPECT_THROW(writer.close(), util::Error);
            }
            // Neither the chunks nor INFO took another byte.
            ASSERT_EQ(store.chunkCount(), chunks.size());
            for (uint32_t id = 0; id < chunks.size(); ++id)
                EXPECT_EQ(store.chunkBytes(id), chunks[id])
                    << "chunk " << id << " mode " << int(mode)
                    << " threads " << threads;
            EXPECT_TRUE(store.infoBytes().empty());
        }
    }
}

// ------------------------------------------------------------ round trip

TEST_P(ThreadSweep, LosslessRoundTripThroughParallelReader)
{
    auto addrs = makeTrace(50'000, 31);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size());
    auto store = writeParallel(addrs, opt, GetParam());

    core::AtcReader reader(store, core::kDefaultDecodedCacheBytes,
                           GetParam());
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

    core::AtcReader reader(store, core::kDefaultDecodedCacheBytes,
                           GetParam());
    std::vector<uint64_t> got = trace::collect(reader);
    EXPECT_EQ(got, expect);
}

// ----------------------------------------------------------- cancelation

TEST(ParallelAtc, AbandonedWriterDoesNotDeadlock)
{
    auto addrs = makeTrace(300'000, 41);
    for (int round = 0; round < 3; ++round) {
        for (core::Mode mode : {core::Mode::Lossy, core::Mode::Lossless}) {
            core::MemoryStore store;
            auto opt = makeOptions(mode, 60'000);
            core::AtcWriter writer(store, opt, 4);
            // Lossless: several transform batches and codec frames
            // are still in flight here.
            writer.write(addrs.data(),
                         mode == core::Mode::Lossy ? 30'000
                                                   : addrs.size() / 2);
            // No close(): destruction must drain the pool and return.
        }
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
    // "store" has no codec checksum; a flip in the payload fails the
    // CRC-32 that the frame index keeps for its frame.
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

TEST(Integrity, MissingFrameIndexRejected)
{
    // The frame index holds the only CRC-32 of each frame, so a chunk
    // cut at a frame boundary — before its terminator, or between the
    // terminator and the index — is refused at open, before any frame
    // could be served unchecked.
    auto addrs = makeTrace(10'000, 52);
    auto opt = makeOptions(core::Mode::Lossless, addrs.size(), "store");
    auto store = writeSerial(addrs, opt);
    const std::vector<uint8_t> &chunk = store.chunkBytes(0);
    util::MemorySource scan(chunk.data(), chunk.size());
    const uint64_t terminator =
        comp::scanSeekableStream(scan).comp_starts.back();
    for (uint64_t keep : {terminator, terminator + 1}) {
        core::MemoryStore bad;
        {
            auto sink = bad.createInfo();
            sink->write(store.infoBytes().data(), store.infoBytes().size());
            auto csink = bad.createChunk(0);
            csink->write(chunk.data(), static_cast<size_t>(keep));
        }
        auto reader = core::AtcReader::open(bad);
        ASSERT_FALSE(reader.ok()) << keep;
        EXPECT_NE(reader.status().message().find("truncated"),
                  std::string::npos)
            << reader.status().message();
    }
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
    // The version byte follows the 4-byte magic. Only v7 is read, so
    // any other version must fail open loudly.
    auto addrs = makeTrace(5'000, 71);
    auto store = writeSerial(
        addrs, makeOptions(core::Mode::Lossless, addrs.size()));
    ASSERT_EQ(store.infoBytes().at(4), core::kContainerVersion);
    for (uint8_t version :
         {uint8_t(1), uint8_t(2), uint8_t(3), uint8_t(4), uint8_t(5),
          uint8_t(6), uint8_t(8)}) {
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

TEST(ContainerVersions, V3ToV6PreamblesAreRefusedAtOpen)
{
    // A v3 reader took a bwc frame's second start row for the start of
    // its Huffman table, a v4 reader reads INFO's payload as legacy
    // frames, a v5 reader reads a block CRC where v6 keeps the first
    // start row, and a v6 reader takes v7's RLE1 text length for the
    // first start row and inverts the RLE1 text as the block. Each
    // preamble is refused before any frame is read.
    EXPECT_EQ(core::kContainerVersion, 7u);
    auto addrs = makeTrace(40'000, 72);
    auto store = writeSerial(addrs, makeOptions(core::Mode::Lossless,
                                                addrs.size(),
                                                "bwc:block=256k"));
    for (uint8_t version : {uint8_t(3), uint8_t(4), uint8_t(5), uint8_t(6)}) {
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
        ASSERT_FALSE(reader.ok());
        EXPECT_NE(reader.status().message().find(
                      "unsupported ATC container version " +
                      std::to_string(version) + " (only v7 is read)"),
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

/** Copy @p store with chunk 0 replaced by @p chunk (a lossy
 *  container's other chunks are copied as they are). */
core::MemoryStore
withChunk0(const core::MemoryStore &store, std::vector<uint8_t> chunk)
{
    core::MemoryStore out;
    {
        auto sink = out.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        for (uint32_t id = 0; id < store.chunkCount(); ++id) {
            const std::vector<uint8_t> &bytes =
                id == 0 ? chunk : store.chunkBytes(id);
            auto csink = out.createChunk(id);
            csink->write(bytes.data(), bytes.size());
        }
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

/** The seekable-framing probes run on a lossless container and on a
 *  lossy one (whose chunk 0 they corrupt): both are read through the
 *  same scanned layouts. */
class SeekableIntegrity : public testing::TestWithParam<core::Mode>
{
};

TEST_P(SeekableIntegrity, MismatchedCompressedLengthRejected)
{
    // Bump the first frame's declared compressed length by one: the
    // codec consumes fewer bytes than declared, which a reader must
    // reject as corruption instead of silently resyncing.
    auto addrs = makeTrace(20'000, 81);
    auto opt = makeOptions(GetParam(), addrs.size(), "store");
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

TEST_P(SeekableIntegrity, TruncatedFrameIndexRejected)
{
    auto addrs = makeTrace(20'000, 82);
    auto opt = makeOptions(GetParam(), addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    // Chop the tail of the frame index: the last entry's CRC-32 and
    // sizes.
    auto chunk = store.chunkBytes(0);
    ASSERT_GT(chunk.size(), 12u);
    chunk.resize(chunk.size() - 10);

    auto bad = withChunk0(store, chunk);
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("index"), std::string::npos)
        << failure.message();
}

TEST_P(SeekableIntegrity, CorruptFrameIndexEntryRejected)
{
    auto addrs = makeTrace(20'000, 83);
    auto opt = makeOptions(GetParam(), addrs.size(), "store");
    auto store = writeSerial(addrs, opt);

    // Flip the low bit of the last entry's compressed size (its last
    // varint byte, just before the entry's 4-byte CRC-32): the recorded
    // sizes no longer match the frames actually decoded.
    auto chunk = store.chunkBytes(0);
    ASSERT_GT(chunk.size(), 5u);
    chunk[chunk.size() - 5] ^= 0x01;

    auto bad = withChunk0(store, chunk);
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("index"), std::string::npos)
        << failure.message();
}

TEST_P(SeekableIntegrity, CorruptFrameCrcInTheIndexRejected)
{
    // Flip a bit of the last entry's stored CRC-32, the stream's last
    // byte. The index still agrees with the frame headers, so the
    // container opens; the last frame then fails its own decode.
    auto addrs = makeTrace(20'000, 86);
    auto opt = makeOptions(GetParam(), addrs.size(), "store");
    auto store = writeSerial(addrs, opt);
    auto chunk = store.chunkBytes(0);
    chunk.back() ^= 0x40;

    auto bad = withChunk0(store, chunk);
    ASSERT_TRUE(core::AtcReader::open(bad).ok());
    util::Status failure = drainExpectFailure(bad);
    ASSERT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("frame CRC mismatch"),
              std::string::npos)
        << failure.message();
}

INSTANTIATE_TEST_SUITE_P(Modes, SeekableIntegrity,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

TEST_P(ThreadSweep, PooledReadReportsCrcMismatch)
{
    // Payload corruption under "store" (no codec checksum) must be
    // caught by the frame's CRC-32 wherever the pooled read decodes
    // it.
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
    EXPECT_NE(failure.message().find("frame CRC mismatch"),
              std::string::npos)
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
    auto pool = std::make_shared<parallel::ThreadPool>(1, 64);
    std::latch gate(1);
    parkTheWorker(*pool, gate);
    auto cursor = std::make_unique<core::AtcCursor>(index, pool);
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
    core::AtcReader reader(store, core::kDefaultDecodedCacheBytes, 4);
    EXPECT_EQ(trace::collect(reader), addrs);
    // The structural claim of seekable framing: several compressed
    // frames in flight at once.
    EXPECT_GE(SleepyStoreCodec::max_in_flight.load(), 2)
        << "block-parallel decode did not overlap frame decodes";
}

TEST(SeekableDecode, PooledBwcFramesOfEverySizeDecodeByteExact)
{
    // The bwc decoder keeps its run list and LF array per thread. Pool
    // workers decode 4 KiB, 32 KiB and 1 MiB frames of bytesort planes
    // (the reader's real codec input) at once, each worker switching
    // sizes between tasks, and every byte must come back.
    auto addrs = makeTrace(160'000, 97);
    std::vector<uint8_t> planes(8 * addrs.size());
    core::bytesortForward(addrs.data(), addrs.size(), planes.data());
    // Each stream is framed as a chunk stream is and read through its
    // scanned layout.
    const comp::Codec &bwc = comp::codecByName("bwc");
    std::vector<std::vector<uint8_t>> streams;
    for (size_t block :
         {size_t(4) << 10, size_t(32) << 10, size_t(1) << 20})
        streams.push_back(
            comp::compressAll(bwc, planes.data(), planes.size(), block));

    parallel::ThreadPool pool(4, 64);
    std::vector<parallel::Task<bool>> decoded;
    for (int round = 0; round < 4; ++round)
        for (size_t s = 0; s < streams.size(); ++s)
            decoded.emplace_back(&pool, [&, s] {
                return comp::decompressAll(bwc, streams[s].data(),
                                           streams[s].size()) == planes;
            });
    for (auto &task : decoded)
        EXPECT_TRUE(task.get());
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
        core::AtcWriter writer(dir, opt, 3);
        writer.write(addrs.data(), addrs.size());
        writer.close();
    }
    // The serial reader consumes the pooled writer's directory...
    core::AtcReader serial(dir);
    std::vector<uint64_t> a = trace::collect(serial);
    // ...and a pooled reader agrees with it, end to end.
    core::AtcReader par(dir, core::kDefaultDecodedCacheBytes,
                        parallel::resolveThreads(0));
    std::vector<uint64_t> b = trace::collect(par);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), addrs.size());
    fs::remove_all(dir);
}

// ---------------------------------------------------- pooled lossy encode

TEST_P(ThreadSweep, PooledLossySurvivesOddIntervalSlicing)
{
    // interval_len deliberately coprime to every batch size the
    // pooled writer sees, so dispatch boundaries never align with
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
    {
        core::AtcWriter writer(store, opt, GetParam());
        writer.write(addrs.data(), addrs.size());
        // no close(): abandoned
    }
    SUCCEED();
}

} // namespace
} // namespace atc

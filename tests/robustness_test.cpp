/**
 * @file
 * Failure-injection and robustness properties: corrupted containers
 * must fail loudly (throw util::Error), never crash, hang, or return
 * silently wrong data past the integrity checks. Also covers the
 * write-back tagging extension and the delta transform end to end.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "cache/filter.hpp"
#include "compress/bwt.hpp"
#include "store_frames.hpp"
#include "trace/suite.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

core::MemoryStore
makeContainer(core::Mode mode, size_t n, uint64_t seed,
              size_t codec_block = 16 * 1024)
{
    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = mode;
    opt.lossy.interval_len = n / 8 + 1;
    opt.pipeline.buffer_addrs = n / 16 + 1;
    opt.pipeline.codec_block = codec_block;
    core::AtcWriter w(store, opt);
    util::Rng rng(seed);
    for (size_t i = 0; i < n; ++i)
        w.code(rng.next() >> 8);
    w.close();
    return store;
}

/** Copy a store with one byte of one blob (INFO, or chunk @p chunk)
 *  flipped. */
core::MemoryStore
corruptCopy(const core::MemoryStore &src, bool corrupt_info, size_t pos,
            uint8_t mask, uint32_t chunk = 0)
{
    core::MemoryStore out;
    {
        auto sink = out.createInfo();
        std::vector<uint8_t> info = src.infoBytes();
        if (corrupt_info && pos < info.size())
            info[pos] ^= mask;
        sink->write(info.data(), info.size());
    }
    for (size_t id = 0; id < src.chunkCount(); ++id) {
        auto sink = out.createChunk(static_cast<uint32_t>(id));
        std::vector<uint8_t> bytes =
            src.chunkBytes(static_cast<uint32_t>(id));
        if (!corrupt_info && id == chunk && pos < bytes.size())
            bytes[pos] ^= mask;
        sink->write(bytes.data(), bytes.size());
    }
    return out;
}

/** Fully drain a container; count decoded values. */
size_t
drain(core::MemoryStore &store)
{
    core::AtcReader reader(store);
    uint64_t v;
    size_t count = 0;
    while (reader.decode(&v))
        ++count;
    return count;
}

/**
 * Flip one byte of chunk @p chunk at each of @p positions: every
 * outcome must be either a throw or — never — a silent wrong-length or
 * wrong-content success. The frame CRCs make corruption loud.
 */
void
expectFlipsDetected(core::MemoryStore &base,
                    const std::vector<size_t> &positions,
                    uint32_t chunk = 0)
{
    int threw = 0, survived = 0;
    for (size_t pos : positions) {
        auto bad = corruptCopy(base, false, pos, 0x20, chunk);
        try {
            size_t n = drain(bad);
            // Tolerable only if the corruption hit dead framing space
            // AND content is identical; verify by comparing streams.
            ++survived;
            core::AtcReader a(base), b(bad);
            uint64_t va, vb;
            for (size_t i = 0; i < n; ++i) {
                ASSERT_TRUE(a.decode(&va));
                ASSERT_TRUE(b.decode(&vb));
                ASSERT_EQ(va, vb) << "silent corruption at byte " << pos
                                  << " of chunk " << chunk;
            }
        } catch (const util::Error &) {
            ++threw;
        }
    }
    // The vast majority of flips must be detected.
    EXPECT_GT(threw, survived);
}

/** About 40 positions spread over the chunk. */
std::vector<size_t>
spreadPositions(size_t chunk_size)
{
    std::vector<size_t> positions;
    for (size_t pos = 0; pos < chunk_size;
         pos += std::max<size_t>(chunk_size / 40, 1))
        positions.push_back(pos);
    return positions;
}

class CorruptionSweep : public testing::TestWithParam<int>
{
};

TEST_P(CorruptionSweep, ChunkBitFlipsNeverSilentlyAccepted)
{
    auto base = makeContainer(core::Mode::Lossless, 3000, GetParam());
    expectFlipsDetected(base, spreadPositions(base.chunkBytes(0).size()));
}

TEST_P(CorruptionSweep, BigBlockChunkBitFlipsNeverSilentlyAccepted)
{
    // 256 KiB codec blocks: the first frame carries two start rows.
    // Besides the spread, flip every byte of the first frame's header
    // and start rows, and of the frame index, whose entries hold each
    // frame's CRC-32.
    auto base =
        makeContainer(core::Mode::Lossless, 40'000, GetParam(), 256 << 10);
    const std::vector<uint8_t> &chunk = base.chunkBytes(0);
    util::MemorySource src(chunk.data(), chunk.size());
    util::readVarint(src); // raw size + 1
    util::readVarint(src); // compressed size
    util::readVarint(src); // start rows
    util::readVarint(src);
    const size_t rows_end = chunk.size() - src.remaining();
    const size_t index_at = test::layoutOf(chunk).comp_starts.back();
    auto positions = spreadPositions(chunk.size());
    for (size_t pos = 0; pos < rows_end; ++pos)
        positions.push_back(pos);
    for (size_t pos = index_at; pos < chunk.size(); ++pos)
        positions.push_back(pos);
    expectFlipsDetected(base, positions);
}

TEST_P(CorruptionSweep, LossyChunkBitFlipsNeverSilentlyAccepted)
{
    // Every chunk of a lossy container is a lossless stream of its own;
    // flips spread over each one must fail the read or leave the
    // regenerated trace as it was.
    auto base = makeContainer(core::Mode::Lossy, 4000, GetParam());
    ASSERT_GE(base.chunkCount(), 2u);
    for (uint32_t id = 0; id < base.chunkCount(); ++id)
        expectFlipsDetected(base, spreadPositions(base.chunkBytes(id).size()),
                            id);
}

/** @return the records of @p store read through the Status API, or
 *  the first error. */
util::StatusOr<std::vector<uint64_t>>
readAll(core::MemoryStore &store)
{
    auto reader = core::AtcReader::open(store);
    if (!reader.ok())
        return reader.status();
    std::vector<uint64_t> out, buf(4096);
    for (;;) {
        auto got = reader.value()->tryRead(buf.data(), buf.size());
        if (!got.ok())
            return got.status();
        if (got.value() == 0)
            return out;
        out.insert(out.end(), buf.begin(), buf.begin() + got.value());
    }
}

TEST_P(CorruptionSweep, StoreInfoBitFlipsNeverReadAsADifferentTrace)
{
    // "store" has no codec checksum, so the CRC-32s in INFO's frame
    // index are what stand between a flipped transform id, buffer size
    // or count and a silently different trace. Flip every bit of the INFO
    // payload (everything after the preamble's codec spec).
    core::MemoryStore base;
    core::AtcOptions opt;
    opt.pipeline.codec = "store";
    opt.pipeline.buffer_addrs = 4096;
    std::vector<uint64_t> trace;
    {
        core::AtcWriter w(base, opt);
        util::Rng rng(GetParam());
        for (int i = 0; i < 50'000; ++i)
            trace.push_back(rng.next() >> 20);
        w.write(trace.data(), trace.size());
        w.close();
    }
    const std::vector<uint8_t> &info = base.infoBytes();
    const size_t payload = 7 + info.at(6); // magic, version, mode, spec
    ASSERT_LT(payload, info.size());
    for (size_t pos = payload; pos < info.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            auto bad = corruptCopy(base, true, pos, uint8_t(1u << bit));
            auto got = readAll(bad);
            EXPECT_TRUE(!got.ok() || got.value() == trace)
                << "INFO byte " << pos << " bit " << bit
                << " read as a different trace";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep, testing::Values(1, 2, 3));

/** Peak resident set of this process so far, in KiB. */
long
peakRssKib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

TEST(Robustness, StoreInfoSizeBombIsOneStatusError)
{
    // A crafted "store"-codec INFO whose one frame declares 256 MiB
    // over 8 payload bytes. Its frame index is well formed, so the
    // frame reaches the codec, which must fail on the bytes it can read
    // instead of sizing its output by the claim.
    const uint64_t declared = uint64_t(256) << 20;
    std::vector<uint8_t> info = {'A', 'T', 'C', 'T',
                                 core::kContainerVersion,
                                 uint8_t(core::Mode::Lossless),
                                 5, 's', 't', 'o', 'r', 'e'};
    util::VectorSink sink(info);
    const std::vector<uint8_t> payload(8, 0);
    util::writeVarint(sink, declared + 1);
    util::writeVarint(sink, payload.size());
    sink.write(payload.data(), payload.size());
    util::writeVarint(sink, 0);
    sink.writeByte(1); // frame index: one frame
    util::writeVarint(sink, 1);
    util::writeVarint(sink, declared);
    util::writeVarint(sink, payload.size());
    util::writeLE<uint32_t>(sink, 0); // the frame's CRC, never reached

    core::MemoryStore bad;
    bad.createInfo()->write(info.data(), info.size());
    long before = peakRssKib();
    auto index = core::AtcIndex::open(bad);
    ASSERT_FALSE(index.ok());
    EXPECT_NE(index.status().message().find("corrupt container"),
              std::string::npos)
        << index.status().message();
    EXPECT_LT(peakRssKib() - before, 64 << 10) << "KiB";
}

/** @p value as a varint of exactly @p len bytes (padded if need be). */
std::vector<uint8_t>
varintOfLength(uint64_t value, size_t len)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i < len; ++i, value >>= 7)
        out.push_back(static_cast<uint8_t>((value & 0x7F) |
                                           (i + 1 < len ? 0x80 : 0)));
    EXPECT_EQ(value, 0u) << "does not fit";
    return out;
}

/** @p base with chunk 0 replaced by @p chunk. */
core::MemoryStore
withChunk(const core::MemoryStore &base, const std::vector<uint8_t> &chunk)
{
    core::MemoryStore out;
    auto info = out.createInfo();
    info->write(base.infoBytes().data(), base.infoBytes().size());
    auto sink = out.createChunk(0);
    sink->write(chunk.data(), chunk.size());
    return out;
}

TEST(Robustness, CorruptStartRowsFailAsOneStatus)
{
    // The first frame of 256 KiB has an RLE1 text of two chains, so two
    // start rows. Rewrite them or the text's length in place (same
    // varint lengths, so the framing still agrees), or cut the chunk
    // after the primary index: the read must fail as one Status before
    // it returns a record.
    auto base = makeContainer(core::Mode::Lossless, 40'000, 5, 256 << 10);
    const std::vector<uint8_t> chunk = base.chunkBytes(0);
    util::MemorySource src(chunk.data(), chunk.size());
    const uint64_t n = util::readVarint(src) - 1; // raw size + 1
    util::readVarint(src);                         // compressed size
    ASSERT_EQ(n, 256u << 10);
    const size_t at_len = chunk.size() - src.remaining();
    const uint64_t text_len = util::readVarint(src);
    ASSERT_EQ(comp::bwtChainCount(text_len), 2u);
    const size_t at0 = chunk.size() - src.remaining();
    const uint64_t start0 = util::readVarint(src);
    const size_t at1 = chunk.size() - src.remaining();
    const uint64_t start1 = util::readVarint(src);
    const size_t end = chunk.size() - src.remaining();
    // This seed's length and rows take three bytes each, as the bound
    // n + n / 4 + 1 does.
    ASSERT_EQ(at0 - at_len, 3u);
    ASSERT_EQ(at1 - at0, 3u);
    ASSERT_EQ(end - at1, 3u);

    auto patched = [&](uint64_t len, uint64_t row0, uint64_t row1) {
        std::vector<uint8_t> bad = chunk;
        for (auto [at, value] : {std::pair{at_len, len}, std::pair{at0, row0},
                                 std::pair{at1, row1}}) {
            auto v = varintOfLength(value, 3);
            std::copy(v.begin(), v.end(), bad.begin() + at);
        }
        return bad;
    };
    const std::pair<std::vector<uint8_t>, const char *> cases[] = {
        {patched(text_len, start0, 0), "start row out of range"},
        {patched(text_len, start0, text_len + 1), "start row out of range"},
        {patched(text_len, start1, start0), "corrupt BWT stream"},
        {patched(n + n / 4 + 1, start0, start1),
         "corrupt container: bwc RLE1 text"},
        {std::vector<uint8_t>(chunk.begin(), chunk.begin() + at1),
         "truncated"},
    };
    ASSERT_TRUE(patched(text_len, start0, start1) == chunk);
    for (const auto &[bytes, why] : cases) {
        auto bad = withChunk(base, bytes);
        for (size_t threads : {size_t(0), size_t(2)}) {
            // A cut chunk may already fail open, at its frame index.
            auto reader = core::AtcReader::open(bad, 0, threads);
            util::Status failure = reader.status();
            if (reader.ok()) {
                std::vector<uint64_t> buf(4096);
                auto r = reader.value()->tryRead(buf.data(), buf.size());
                ASSERT_FALSE(r.ok()) << why << " at " << threads;
                failure = r.status();
            }
            EXPECT_NE(failure.message().find(why), std::string::npos)
                << failure.message();
        }
    }
}

TEST(Robustness, InfoBitFlipsThrowOrPreserveContent)
{
    auto base = makeContainer(core::Mode::Lossy, 4000, 7);
    size_t info_size = base.infoBytes().size();
    size_t expect = drain(base);
    for (size_t pos = 0; pos < info_size; ++pos) {
        auto bad = corruptCopy(base, true, pos, 0x01);
        try {
            size_t n = drain(bad);
            // INFO integrity is protected by the frame CRCs except the
            // tiny uncompressed preamble; a surviving flip must not
            // change the value count.
            EXPECT_EQ(n, expect) << "at byte " << pos;
        } catch (const util::Error &) {
            // expected for most positions
        }
    }
}

TEST(Robustness, TruncatedChunkThrows)
{
    auto base = makeContainer(core::Mode::Lossless, 5000, 9);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(base.infoBytes().data(), base.infoBytes().size());
        auto chunk = base.chunkBytes(0);
        chunk.resize(chunk.size() / 3);
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    EXPECT_THROW(drain(bad), util::Error);
}

TEST(Robustness, MissingChunkFileThrows)
{
    auto base = makeContainer(core::Mode::Lossy, 4000, 11);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(base.infoBytes().data(), base.infoBytes().size());
        // copy no chunks
    }
    EXPECT_THROW(drain(bad), util::Error);
}

TEST(Robustness, ForgedChunkCountIsOneStatusError)
{
    // INFO's chunk count must equal its number of chunk records, so it
    // can neither index past the scanned chunks nor size an
    // allocation. Each forged count is written by the real INFO writer
    // over the chunks of a genuine "store"-codec lossy container.
    core::MemoryStore base;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossy;
    opt.pipeline.codec = "store";
    opt.pipeline.buffer_addrs = 250;
    opt.lossy.interval_len = 500;
    {
        core::AtcWriter w(base, opt);
        util::Rng rng(13);
        for (int i = 0; i < 4000; ++i)
            w.code(rng.next() >> 8);
        w.close();
    }
    auto index = core::AtcIndex::openOrThrow(base);
    const core::ContainerInfo &info = index->info();
    ASSERT_EQ(info.chunk_count, base.chunkCount());

    // 2^32 truncates to 0 layouts, 2^32 + 1 to a plausible 1, and 10^8
    // would reserve gigabytes of layouts.
    for (uint64_t forged : {uint64_t(1) << 32, (uint64_t(1) << 32) + 1,
                            uint64_t(100'000'000)}) {
        core::MemoryStore bad;
        for (uint32_t id = 0; id < base.chunkCount(); ++id) {
            auto sink = bad.createChunk(id);
            sink->write(base.chunkBytes(id).data(),
                        base.chunkBytes(id).size());
        }
        core::writeContainerInfo(bad, comp::makeCodec(opt.pipeline.codec),
                                 core::Mode::Lossy, info.pipeline,
                                 info.count, &opt.lossy, forged,
                                 &info.records);
        auto reader = core::AtcReader::open(bad);
        ASSERT_FALSE(reader.ok()) << forged;
        EXPECT_NE(reader.status().message().find("chunk count"),
                  std::string::npos)
            << reader.status().message();
    }
}

/**
 * A "store"-codec lossless container whose first transform-buffer
 * length varint is overwritten in place with 2^61 + 1 (nine bytes),
 * its frame CRC restamped: the frame sizes and CRC still agree with
 * the index, but 8 * n wraps and a buffer of n records cannot be
 * allocated.
 */
core::MemoryStore
craftedBufferLength()
{
    core::MemoryStore base;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.codec = "store";
    opt.pipeline.buffer_addrs = 1000;
    {
        core::AtcWriter w(base, opt);
        for (uint64_t i = 0; i < 5000; ++i)
            w.code(0x10000000 + 64 * i);
        w.close();
    }
    std::vector<uint8_t> chunk = base.chunkBytes(0);
    util::MemorySource header(chunk.data(), chunk.size());
    util::readVarint(header); // raw size + 1
    util::readVarint(header); // compressed size
    size_t at = chunk.size() - header.remaining();
    std::vector<uint8_t> varint;
    util::VectorSink sink(varint);
    util::writeVarint(sink, (uint64_t(1) << 61) + 1);
    EXPECT_EQ(varint.size(), 9u);
    std::copy(varint.begin(), varint.end(), chunk.begin() + at);
    test::restampStoreCrcs(chunk);

    core::MemoryStore out;
    auto info = out.createInfo();
    info->write(base.infoBytes().data(), base.infoBytes().size());
    auto csink = out.createChunk(0);
    csink->write(chunk.data(), chunk.size());
    return out;
}

TEST(Robustness, CraftedBufferLengthIsAnErrorNotAnAbort)
{
    auto bad = craftedBufferLength();
    for (size_t threads : {size_t(0), size_t(2)}) {
        auto reader = core::AtcReader::open(bad, 0, threads);
        util::Status failure;
        if (!reader.ok()) {
            failure = reader.status();
        } else {
            uint64_t buf[64];
            auto r = reader.value()->tryRead(buf, 64);
            ASSERT_FALSE(r.ok()) << threads;
            failure = r.status();

            std::vector<uint64_t> out;
            util::Status range =
                reader.value()->cursor()->readRange(0, 10, out);
            ASSERT_FALSE(range.ok());
            EXPECT_NE(range.message().find("buffer length"),
                      std::string::npos)
                << range.message();
        }
        EXPECT_NE(failure.message().find("buffer length"),
                  std::string::npos)
            << failure.message();
    }
}

TEST(Robustness, BufferLengthBeyondTheFrameIsAnErrorNotAnAllocation)
{
    // A one-record "store" container written with 2^24-address
    // buffers, whose buffer length is rewritten in place to the full
    // 2^24 (the frame CRC restamped): the header passes the buffer-size
    // check, but its 128 MiB of planes are not in the 10-byte frame.
    // The read must fail on the bytes the stream holds before it sizes
    // anything by the claim.
    core::MemoryStore base;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.codec = "store";
    opt.pipeline.buffer_addrs = size_t(1) << 24;
    {
        core::AtcWriter w(base, opt);
        w.code(0x10000000);
        w.close();
    }
    std::vector<uint8_t> chunk = base.chunkBytes(0);
    util::MemorySource header(chunk.data(), chunk.size());
    util::readVarint(header); // raw size + 1
    util::readVarint(header); // compressed size
    const size_t at = chunk.size() - header.remaining();
    const std::vector<uint8_t> claim = varintOfLength(size_t(1) << 24, 4);
    std::copy(claim.begin(), claim.end(), chunk.begin() + at);
    test::restampStoreCrcs(chunk);
    auto bad = withChunk(base, chunk);

    for (size_t threads : {size_t(0), size_t(2)}) {
        auto reader = core::AtcReader::open(bad, 0, threads);
        ASSERT_TRUE(reader.ok()) << reader.status().message();
        long before = peakRssKib();
        std::vector<uint64_t> out;
        util::Status range = reader.value()->cursor()->readRange(0, 1, out);
        ASSERT_FALSE(range.ok()) << threads;
        EXPECT_NE(range.message().find("overruns"), std::string::npos)
            << range.message();
        EXPECT_LT(peakRssKib() - before, 32 << 10) << "KiB";
    }
}

TEST(DeltaTransform, RoundTripStreaming)
{
    util::Rng rng(3);
    for (size_t len : {size_t(0), size_t(1), size_t(1000), size_t(4097)}) {
        std::vector<uint64_t> addrs(len);
        uint64_t base = 0x4000000;
        for (auto &a : addrs) {
            base += rng.below(256);
            a = base;
        }
        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        core::TransformEncoder enc(core::Transform::Delta, 512, sink);
        for (uint64_t a : addrs)
            enc.code(a);
        enc.finish();
        util::MemorySource src(out);
        core::TransformDecoder dec(core::Transform::Delta, src);
        std::vector<uint64_t> back;
        uint64_t v;
        while (dec.decode(&v))
            back.push_back(v);
        EXPECT_EQ(back, addrs) << len;
    }
}

TEST(DeltaTransform, BeatsRawOnSequentialTrace)
{
    std::vector<uint64_t> addrs(100000);
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = 0x123456000 + i;
    auto bpa = [&](core::Transform t) {
        util::CountingSink sink;
        core::LosslessParams p;
        p.transform = t;
        p.buffer_addrs = 10000;
        core::LosslessWriter w(p, sink);
        for (uint64_t a : addrs)
            w.code(a);
        w.finish();
        return 8.0 * sink.count() / addrs.size();
    };
    EXPECT_LT(bpa(core::Transform::Delta), bpa(core::Transform::None));
    EXPECT_LT(bpa(core::Transform::Delta), 0.2);
}

TEST(DeltaTransform, ContainerRoundTrip)
{
    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.transform = core::Transform::Delta;
    opt.pipeline.buffer_addrs = 700;
    std::vector<uint64_t> addrs;
    util::Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        addrs.push_back(rng.next() >> 20);
    {
        core::AtcWriter w(store, opt);
        for (uint64_t a : addrs)
            w.code(a);
        w.close();
    }
    core::AtcReader r(store);
    std::vector<uint64_t> back;
    uint64_t v;
    while (r.decode(&v))
        back.push_back(v);
    EXPECT_EQ(back, addrs);
}

TEST(WriteBackFilter, WritesProduceTaggedRecords)
{
    // Tiny direct-mapped D-cache: write block 0, then force its
    // eviction with a conflicting block; a tagged write-back appears.
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    f.accessTagged(0 * 64, false, true, out);   // write miss: demand rec
    f.accessTagged(2 * 64, false, false, out);  // conflicting read
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0u);                         // demand miss, block 0
    EXPECT_EQ(out[1], 2u);                         // demand miss, block 2
    EXPECT_EQ(out[2], 0u | cache::kWriteBackTag);  // block 0 written back
}

TEST(WriteBackFilter, ReadsNeverProduceWriteBacks)
{
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 100; ++i)
        f.accessTagged(static_cast<uint64_t>(i) * 64, false, false, out);
    for (uint64_t rec : out)
        EXPECT_EQ(rec & cache::kWriteBackTag, 0u);
}

TEST(WriteBackFilter, InstructionFetchesNeverDirty)
{
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    // is_write is ignored for instruction fetches.
    f.accessTagged(0, true, true, out);
    f.accessTagged(2 * 64, true, false, out);
    f.accessTagged(4 * 64, true, false, out);
    for (uint64_t rec : out)
        EXPECT_EQ(rec & cache::kWriteBackTag, 0u);
}

TEST(WriteBackFilter, TaggedStreamSurvivesAtcLossless)
{
    // End-to-end: tagged records (with their MSB tag bits) round-trip
    // through the compressor — the paper's §2 use case.
    cache::CacheFilter f;
    util::Rng rng(6);
    std::vector<uint64_t> records;
    for (int i = 0; i < 300000 && records.size() < 20000; ++i) {
        uint64_t addr = 0x1000000 + rng.below(1 << 21);
        f.accessTagged(addr, false, rng.below(2) == 0, records);
    }
    ASSERT_GT(records.size(), 1000u);
    bool any_wb = false;
    for (uint64_t rec : records)
        any_wb |= (rec & cache::kWriteBackTag) != 0;
    EXPECT_TRUE(any_wb);

    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.buffer_addrs = 4096;
    {
        core::AtcWriter w(store, opt);
        for (uint64_t rec : records)
            w.code(rec);
        w.close();
    }
    core::AtcReader r(store);
    std::vector<uint64_t> back;
    uint64_t v;
    while (r.decode(&v))
        back.push_back(v);
    EXPECT_EQ(back, records);
}

} // namespace
} // namespace atc

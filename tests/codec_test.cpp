/**
 * @file
 * Tests for the block codecs (BWC, LZH, store) and the stream framing,
 * including corruption detection.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>

#include "bench_common.hpp"
#include "compress/bwc.hpp"
#include "compress/huffman.hpp"
#include "compress/lzh.hpp"
#include "compress/rle.hpp"
#include "compress/stream.hpp"
#include "reference_bwc.hpp"
#include "util/bitio.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

std::vector<uint8_t>
makeData(int mode, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i) {
        switch (mode) {
          case 0: // random
            data[i] = static_cast<uint8_t>(rng.below(256));
            break;
          case 1: // periodic
            data[i] = static_cast<uint8_t>((i / 7) & 15);
            break;
          case 2: // low entropy random
            data[i] = static_cast<uint8_t>(rng.below(3));
            break;
          default: // text-like
            data[i] = static_cast<uint8_t>('a' + rng.below(26));
            break;
        }
    }
    return data;
}

struct CodecCase
{
    std::string codec;
    int mode;
    size_t size;
};

class CodecRoundTrip : public testing::TestWithParam<CodecCase>
{
};

TEST_P(CodecRoundTrip, CompressDecompress)
{
    const auto &[name, mode, size] = GetParam();
    const comp::Codec &codec = comp::codecByName(name);
    auto data = makeData(mode, size, size * 31 + mode);
    auto compressed = comp::compressAll(codec, data.data(), data.size(),
                                        64 * 1024);
    auto back = comp::decompressAll(codec, compressed.data(),
                                    compressed.size());
    EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CodecRoundTrip,
    testing::Values(
        CodecCase{"bwc", 0, 0}, CodecCase{"bwc", 0, 1},
        CodecCase{"bwc", 0, 100000}, CodecCase{"bwc", 1, 100000},
        CodecCase{"bwc", 2, 100000}, CodecCase{"bwc", 3, 200000},
        CodecCase{"bwc", 1, 65536}, // exactly one block
        CodecCase{"bwc", 1, 65537}, // one block + 1 byte
        CodecCase{"lzh", 0, 0}, CodecCase{"lzh", 0, 1},
        CodecCase{"lzh", 0, 100000}, CodecCase{"lzh", 1, 100000},
        CodecCase{"lzh", 2, 100000}, CodecCase{"lzh", 3, 200000},
        CodecCase{"store", 0, 10000}, CodecCase{"store", 1, 0}));

TEST(CodecRegistry, KnowsAllCodecs)
{
    EXPECT_EQ(comp::codecByName("bwc").name(), "bwc");
    EXPECT_EQ(comp::codecByName("lzh").name(), "lzh");
    EXPECT_EQ(comp::codecByName("store").name(), "store");
    EXPECT_THROW(comp::codecByName("bzip2"), util::Error);
}

TEST(CodecRegistry, ListsBuiltins)
{
    auto &reg = comp::CodecRegistry::instance();
    EXPECT_TRUE(reg.has("bwc"));
    EXPECT_TRUE(reg.has("lzh"));
    EXPECT_TRUE(reg.has("store"));
    EXPECT_FALSE(reg.has("bzip2"));
    auto names = reg.names();
    EXPECT_GE(names.size(), 3u);
}

TEST(CodecRegistry, RuntimeRegistrationExtendsLookup)
{
    auto &reg = comp::CodecRegistry::instance();
    reg.add("null2", [](const comp::CodecSpec &spec)
                -> atc::util::StatusOr<
                    std::shared_ptr<const comp::Codec>> {
        if (!spec.params.empty())
            return util::Status::error("null2 takes no parameters");
        return std::shared_ptr<const comp::Codec>(
            std::make_shared<comp::StoreCodec>());
    });
    auto cc = reg.create("null2:block=2k");
    ASSERT_TRUE(cc.ok()) << cc.status().message();
    EXPECT_EQ(cc.value().block_size, 2048u);
    EXPECT_FALSE(reg.create("null2:junk=1").ok());
}

TEST(CodecSpec, ParsesPlainNames)
{
    auto spec = comp::CodecSpec::parse("bwc");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().name, "bwc");
    EXPECT_TRUE(spec.value().params.empty());
    EXPECT_EQ(spec.value().toString(), "bwc");
}

TEST(CodecSpec, ParsesParameters)
{
    auto spec = comp::CodecSpec::parse("bwc:block=900k,foo=bar");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().name, "bwc");
    ASSERT_EQ(spec.value().params.size(), 2u);
    ASSERT_NE(spec.value().find("block"), nullptr);
    EXPECT_EQ(*spec.value().find("block"), "900k");
    ASSERT_NE(spec.value().find("foo"), nullptr);
    EXPECT_EQ(*spec.value().find("foo"), "bar");
    EXPECT_EQ(spec.value().find("missing"), nullptr);
    EXPECT_EQ(spec.value().toString(), "bwc:block=900k,foo=bar");
}

TEST(CodecSpec, SizeParamHandlesSuffixes)
{
    auto spec = comp::CodecSpec::parse("x:a=7,b=2k,c=3m,d=1g");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().sizeParam("a", 0).value(), 7u);
    EXPECT_EQ(spec.value().sizeParam("b", 0).value(), 2048u);
    EXPECT_EQ(spec.value().sizeParam("c", 0).value(), 3u << 20);
    EXPECT_EQ(spec.value().sizeParam("d", 0).value(), 1u << 30);
    EXPECT_EQ(spec.value().sizeParam("absent", 42).value(), 42u);
}

TEST(CodecSpec, RejectsMalformedInput)
{
    for (const char *bad :
         {"", ":", "bwc:", "bwc:block", "bwc:block=", "bwc:=v",
          "bwc:block=1,", "bwc:block=1,block=2", "bw c", "bwc:a b=1"}) {
        EXPECT_FALSE(comp::CodecSpec::parse(bad).ok()) << "'" << bad
                                                       << "'";
    }
}

TEST(CodecSpec, RejectsMalformedSizes)
{
    // e/f: the digits pass the raw-value cap but the k/m/g multiplier
    // would wrap uint64_t — must be out-of-range, not a tiny size.
    auto spec = comp::CodecSpec::parse(
        "x:a=k,b=9q,c=0,d=12kb,e=281474976710656g,f=562949953421312k");
    ASSERT_TRUE(spec.ok());
    for (const char *key : {"a", "b", "c", "d", "e", "f"})
        EXPECT_FALSE(spec.value().sizeParam(key, 1).ok()) << key;
}

TEST(CodecSpec, RegistryRejectsUnknownParameters)
{
    EXPECT_FALSE(
        comp::CodecRegistry::instance().create("bwc:window=1k").ok());
    EXPECT_FALSE(
        comp::CodecRegistry::instance().create("lzh:level=9").ok());
}

TEST(CodecSpec, MakeCodecAppliesBlockParameter)
{
    comp::ConfiguredCodec cc = comp::makeCodec("lzh:block=64k");
    EXPECT_EQ(cc.codec->name(), "lzh");
    EXPECT_EQ(cc.block_size, 64u * 1024);
    EXPECT_EQ(cc.blockOr(123), 64u * 1024);
    EXPECT_EQ(cc.spec, "lzh:block=64k");

    comp::ConfiguredCodec plain = comp::makeCodec("lzh");
    EXPECT_EQ(plain.block_size, 0u);
    EXPECT_EQ(plain.blockOr(123), 123u);
    EXPECT_THROW(comp::makeCodec("bwc:block=x"), util::Error);
    EXPECT_THROW(comp::makeCodec("nope"), util::Error);
}

TEST(Bwc, CompressesPeriodicDataWell)
{
    auto data = makeData(1, 1 << 20, 1);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), data.size() / 100);
}

TEST(Bwc, BeatsLzhOnTextLikeData)
{
    auto data = makeData(3, 1 << 19, 2);
    auto bwc = comp::compressAll(comp::codecByName("bwc"), data.data(),
                                 data.size());
    auto lzh = comp::compressAll(comp::codecByName("lzh"), data.data(),
                                 data.size());
    // BWT+entropy coding approaches the ~4.7 bit/symbol source entropy;
    // LZ77 cannot find matches in memoryless random text.
    EXPECT_LT(bwc.size(), lzh.size());
}

TEST(Bwc, RandomDataDoesNotExplode)
{
    auto data = makeData(0, 100000, 3);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    // Huffman on incompressible bytes: bounded overhead.
    EXPECT_LT(compressed.size(), data.size() * 11 / 10);
}

TEST(Bwc, DetectsCorruption)
{
    auto data = makeData(1, 50000, 4);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    // Flip a bit in the payload (past the frame header and CRC field).
    compressed[compressed.size() / 2] ^= 0x10;
    EXPECT_THROW(comp::decompressAll(comp::codecByName("bwc"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

/** Peak resident set of this process so far, in KiB. */
long
peakRssKib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** @return whether @p fn throws a util::Error whose text has @p part. */
template <typename Fn>
bool
throwsErrorWith(Fn &&fn, const std::string &part)
{
    try {
        fn();
    } catch (const util::Error &e) {
        if (std::string(e.what()).find(part) != std::string::npos)
            return true;
        ADD_FAILURE() << "unexpected error text: " << e.what();
        return false;
    }
    return false;
}

TEST(Bwc, ZeroRunBombIsASizeMismatchNotAnAllocation)
{
    // A hand-built block: CRC, primary 1, a Huffman table over RUNA and
    // EOB, then 40 RUNA digits (a run of 2^40 - 1 zeros) and EOB, for a
    // frame that declares 4096 bytes.
    std::vector<uint8_t> block;
    util::VectorSink sink(block);
    util::writeLE<uint32_t>(sink, 0);
    util::writeVarint(sink, 1);
    std::vector<uint64_t> freq(comp::kRleAlphabet, 0);
    freq[comp::kRunA] = 40;
    freq[comp::kEob] = 1;
    comp::HuffmanEncoder enc(freq);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (int i = 0; i < 40; ++i)
        enc.writeSymbol(bw, comp::kRunA);
    enc.writeSymbol(bw, comp::kEob);
    bw.alignAndFlush();

    long before = peakRssKib();
    std::vector<uint8_t> out;
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            util::MemorySource src(block.data(), block.size());
            comp::BwcCodec().decompressBlock(src, 4096, out);
        },
        "size mismatch"));
    EXPECT_EQ(out.capacity(), 0u);
    EXPECT_LT(peakRssKib() - before, 64 << 10) << "KiB";
}

TEST(Bwc, BlockCapIsRefusedWhenTheCodecIsBuilt)
{
    const std::string cap = std::to_string(comp::kMaxBwcBlock);
    EXPECT_EQ(comp::kMaxBwcBlock, (size_t(1) << 24) - 1);
    auto &registry = comp::CodecRegistry::instance();
    for (const char *spec : {"bwc:block=16m", "bwc:block=16777216"}) {
        auto cc = registry.create(spec);
        ASSERT_FALSE(cc.ok()) << spec;
        EXPECT_NE(cc.status().message().find(cap), std::string::npos)
            << cc.status().message();
        EXPECT_TRUE(throwsErrorWith([&] { comp::makeCodec(spec); }, cap));
    }
    EXPECT_TRUE(registry.create("bwc:block=16777215").ok());
    EXPECT_TRUE(registry.create("lzh:block=16m").ok());
    EXPECT_TRUE(registry.create("store:block=1g").ok());

    // A stream built around the codec with a larger block is refused
    // before it takes a byte.
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::StreamCompressor sc(comp::codecByName("bwc"), sink,
                                      comp::kMaxBwcBlock + 1);
        },
        cap));
    EXPECT_TRUE(out.empty());
}

TEST(Bwc, FrameAboveTheCapIsACorruptContainer)
{
    // The codec refuses the declared size before it reads or allocates.
    std::vector<uint8_t> payload(16, 0);
    std::vector<uint8_t> out;
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            util::MemorySource src(payload.data(), payload.size());
            comp::BwcCodec().decompressBlock(src, comp::kMaxBwcBlock + 1,
                                             out);
        },
        "corrupt container"));
    EXPECT_EQ(out.capacity(), 0u);

    // The same through a seekable stream whose one frame declares
    // 2^24 raw bytes (a size the framing itself finds plausible).
    std::vector<uint8_t> stream;
    util::VectorSink sink(stream);
    util::writeVarint(sink, (uint64_t(1) << 24) + 1);
    util::writeVarint(sink, payload.size());
    sink.write(payload.data(), payload.size());
    util::writeVarint(sink, 0);
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::decompressAll(comp::codecByName("bwc"), stream.data(),
                                stream.size(), comp::FrameFormat::Seekable);
        },
        "corrupt container"));
}

/** A bwc frame cut into its fields. */
struct BwcFrame
{
    uint32_t crc;
    std::vector<uint64_t> starts;
    std::vector<uint8_t> tail; ///< Huffman table and coded symbols
};

/** Split @p frame of an n-byte block, reading @p chains start rows. */
BwcFrame
splitFrame(const std::vector<uint8_t> &frame, size_t chains)
{
    util::MemorySource src(frame.data(), frame.size());
    BwcFrame f;
    f.crc = util::readLE<uint32_t>(src);
    for (size_t k = 0; k < chains; ++k)
        f.starts.push_back(util::readVarint(src));
    size_t used = frame.size() - src.remaining();
    f.tail.assign(frame.begin() + used, frame.end());
    return f;
}

std::vector<uint8_t>
joinFrame(const BwcFrame &f)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::writeLE<uint32_t>(sink, f.crc);
    for (uint64_t row : f.starts)
        util::writeVarint(sink, row);
    sink.write(f.tail.data(), f.tail.size());
    return out;
}

std::vector<uint8_t>
bwcFrameOf(const std::vector<uint8_t> &data)
{
    std::vector<uint8_t> frame;
    util::VectorSink sink(frame);
    comp::BwcCodec().compressBlock(data.data(), data.size(), sink);
    return frame;
}

std::vector<uint8_t>
bwcDecode(const std::vector<uint8_t> &frame, size_t n)
{
    util::MemorySource src(frame.data(), frame.size());
    std::vector<uint8_t> out;
    comp::BwcCodec().decompressBlock(src, n, out);
    EXPECT_EQ(src.remaining(), 0u);
    return out;
}

TEST(Bwc, FramesCarryOneStartRowPer128KiB)
{
    // Around the chain length S = 2^17: after the CRC come exactly
    // ceil(n / S) start rows, then the Huffman table. The symbols
    // behind them decode through the reference with those rows.
    constexpr size_t S = comp::kBwtChainBytes;
    const std::pair<size_t, size_t> cases[] = {
        {S - 1, 1}, {S, 1},        {S + 1, 2},       {2 * S + 1, 3},
        {8 * S, 8}, {8 * S + 5, 9}, {24 * S + 7, 25},
    };
    for (auto [n, chains] : cases) {
        for (bool planes : {false, true}) {
            auto data = planes ? bench::suitePlanes(n, n + 1)
                               : makeData(3, n, n);
            auto frame = bwcFrameOf(data);
            BwcFrame f = splitFrame(frame, chains);
            EXPECT_EQ(f.crc, util::crc32(data.data(), n));
            for (uint64_t row : f.starts) {
                EXPECT_GE(row, 1u);
                EXPECT_LE(row, n);
            }
            util::MemorySource src(f.tail.data(), f.tail.size());
            util::BitReader br(src);
            auto dec = comp::HuffmanDecoder::readTable(br, comp::kRleAlphabet);
            std::vector<uint16_t> symbols;
            do {
                symbols.push_back(static_cast<uint16_t>(dec.decode(br)));
            } while (symbols.back() != comp::kEob);
            br.align();
            EXPECT_EQ(src.remaining(), 0u);
            EXPECT_TRUE(ref::decode(symbols, n, f.starts) == data)
                << n << (planes ? " planes" : " text");
            EXPECT_TRUE(bwcDecode(frame, n) == data)
                << n << (planes ? " planes" : " text");
        }
    }
}

TEST(Bwc, CorruptStartRowsAreErrors)
{
    // A block of three chains. Each corruption must fail as a
    // util::Error, before the walk reads out of range (the sanitizer
    // build checks that part).
    const size_t n = 2 * comp::kBwtChainBytes + 17;
    auto data = bench::suitePlanes(n, 7);
    auto frame = bwcFrameOf(data);
    BwcFrame good = splitFrame(frame, 3);
    ASSERT_TRUE(bwcDecode(joinFrame(good), n) == data);
    auto refused = [&](const BwcFrame &f, const std::string &why) {
        return throwsErrorWith([&] { bwcDecode(joinFrame(f), n); }, why);
    };

    BwcFrame zero = good;
    zero.starts[1] = 0;
    EXPECT_TRUE(refused(zero, "start row out of range"));
    BwcFrame above = good;
    above.starts[2] = n + 1;
    EXPECT_TRUE(refused(above, "start row out of range"));
    BwcFrame swapped = good;
    std::swap(swapped.starts[1], swapped.starts[2]);
    EXPECT_TRUE(refused(swapped, "corrupt BWT stream"));

    // Cut right after the primary index: the second start row is
    // missing.
    BwcFrame cut = good;
    cut.starts.resize(1);
    cut.tail.clear();
    EXPECT_TRUE(refused(cut, "truncated"));
}

TEST(Lzh, DetectsCorruption)
{
    auto data = makeData(3, 50000, 5);
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    compressed[compressed.size() / 2] ^= 0x10;
    EXPECT_THROW(comp::decompressAll(comp::codecByName("lzh"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

TEST(Lzh, FindsLongMatches)
{
    // Two copies of the same 32 KiB random block: the second copy
    // should almost disappear.
    auto half = makeData(0, 32768, 6);
    std::vector<uint8_t> data(half);
    data.insert(data.end(), half.begin(), half.end());
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), half.size() * 11 / 10 + 1024);
    auto back = comp::decompressAll(comp::codecByName("lzh"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Lzh, OverlappingMatchRoundTrip)
{
    // RLE-style overlap: "aaaa..." encodes as (dist 1, long length).
    std::vector<uint8_t> data(10000, 'a');
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), 600u);
    auto back = comp::decompressAll(comp::codecByName("lzh"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Stream, MultiBlockFraming)
{
    auto data = makeData(1, 300000, 7);
    // Small blocks force multiple frames.
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size(), 4096);
    auto back = comp::decompressAll(comp::codecByName("bwc"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Stream, TerminatorAllowsEmbedding)
{
    auto data = makeData(1, 10000, 8);
    std::vector<uint8_t> container;
    util::VectorSink sink(container);
    comp::StreamCompressor sc(comp::codecByName("store"), sink, 4096);
    sc.write(data.data(), data.size());
    sc.finish();
    // Trailing garbage after the terminator must not be consumed.
    container.push_back(0xAA);
    container.push_back(0xBB);

    util::MemorySource src(container);
    comp::StreamDecompressor sd(comp::codecByName("store"), src);
    std::vector<uint8_t> back(data.size() + 10);
    size_t got = sd.read(back.data(), back.size());
    EXPECT_EQ(got, data.size());
    back.resize(got);
    EXPECT_EQ(back, data);
    EXPECT_EQ(src.remaining(), 2u);
}

TEST(Stream, RawByteCountTracked)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    comp::StreamCompressor sc(comp::codecByName("store"), sink);
    auto data = makeData(1, 12345, 9);
    sc.write(data.data(), data.size());
    sc.finish();
    EXPECT_EQ(sc.rawBytes(), 12345u);
}

TEST(Stream, ByteAtATimeReads)
{
    auto data = makeData(3, 5000, 10);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size(), 1024);
    util::MemorySource src(compressed);
    comp::StreamDecompressor sd(comp::codecByName("bwc"), src);
    for (size_t i = 0; i < data.size(); ++i) {
        uint8_t b;
        ASSERT_EQ(sd.read(&b, 1), 1u);
        ASSERT_EQ(b, data[i]) << "at " << i;
    }
    uint8_t b;
    EXPECT_EQ(sd.read(&b, 1), 0u);
}

TEST(Stream, TruncatedStreamThrows)
{
    auto data = makeData(1, 50000, 11);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    compressed.resize(compressed.size() / 2);
    EXPECT_THROW(comp::decompressAll(comp::codecByName("bwc"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

} // namespace
} // namespace atc

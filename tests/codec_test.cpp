/**
 * @file
 * Tests for the block codecs (BWC, LZH, store) and the stream framing,
 * including corruption detection by the frame index's CRC-32s.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>

#include "bench_common.hpp"
#include "compress/bwc.hpp"
#include "compress/huffman.hpp"
#include "compress/lzh.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "compress/stream.hpp"
#include "reference_bwc.hpp"
#include "reference_huffman.hpp"
#include "store_frames.hpp"
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
    // Flip a bit in the payload (past the frame header and start row).
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
    // A hand-built block: an RLE1 text of 4096 bytes, primary 1, a
    // Huffman table over RUNA and EOB, then 40 RUNA digits (a run of
    // 2^40 - 1 zeros) and EOB, for a frame that declares 4096 bytes.
    std::vector<uint8_t> block;
    util::VectorSink sink(block);
    util::writeVarint(sink, 4096);
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
    // A block's RLE1 text can be 1.25 times the block, and the text's
    // rows must fit 24 bits.
    const std::string cap = std::to_string(comp::kMaxBwcBlock);
    EXPECT_EQ(comp::kMaxBwcBlock, 13'421'772u);
    EXPECT_EQ(comp::rle1Bound(comp::kMaxBwcBlock), comp::kMaxBwtBlock);
    auto &registry = comp::CodecRegistry::instance();
    for (const char *spec :
         {"bwc:block=16m", "bwc:block=16777215", "bwc:block=13421773"}) {
        auto cc = registry.create(spec);
        ASSERT_FALSE(cc.ok()) << spec;
        EXPECT_NE(cc.status().message().find(cap), std::string::npos)
            << cc.status().message();
        EXPECT_TRUE(throwsErrorWith([&] { comp::makeCodec(spec); }, cap));
    }
    EXPECT_TRUE(registry.create("bwc:block=13421772").ok());
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

    // The same through a stream whose one frame declares 2^24 raw
    // bytes (a size the framing itself finds plausible). Its frame
    // index is well formed, so the scan accepts the stream and the
    // frame reaches the codec.
    const uint64_t raw = uint64_t(1) << 24;
    std::vector<uint8_t> stream;
    util::VectorSink sink(stream);
    util::writeVarint(sink, raw + 1);
    util::writeVarint(sink, payload.size());
    sink.write(payload.data(), payload.size());
    util::writeVarint(sink, 0);
    sink.writeByte(1); // index present: one frame
    util::writeVarint(sink, 1);
    util::writeVarint(sink, raw);
    util::writeVarint(sink, payload.size());
    util::writeLE<uint32_t>(sink, 0); // the frame's CRC, never reached
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::decompressAll(comp::codecByName("bwc"), stream.data(),
                                stream.size());
        },
        "corrupt container"));
}

/** A bwc frame cut into its fields. */
struct BwcFrame
{
    uint64_t text_len = 0;       ///< length of the block's RLE1 text
    std::vector<uint64_t> starts; ///< one per 2^17 bytes of that text
    std::vector<uint8_t> tail;    ///< Huffman table and coded symbols
};

/** Split @p frame into its fields. */
BwcFrame
splitFrame(const std::vector<uint8_t> &frame)
{
    util::MemorySource src(frame.data(), frame.size());
    BwcFrame f;
    f.text_len = util::readVarint(src);
    for (size_t k = 0; k < comp::bwtChainCount(f.text_len); ++k)
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
    util::writeVarint(sink, f.text_len);
    for (uint64_t row : f.starts)
        util::writeVarint(sink, row);
    sink.write(f.tail.data(), f.tail.size());
    return out;
}

/** The RLE1 text a frame carries, decoded by the references. */
std::vector<uint8_t>
textOf(const BwcFrame &f)
{
    util::MemorySource src(f.tail.data(), f.tail.size());
    ref::BitReader br(src);
    ref::HuffmanDecoder dec(ref::readLengths(br, comp::kRleAlphabet));
    std::vector<uint16_t> symbols;
    do {
        symbols.push_back(static_cast<uint16_t>(dec.decode(br)));
    } while (symbols.back() != comp::kEob);
    EXPECT_EQ(src.remaining(), 0u);
    return ref::decode(symbols, f.text_len, f.starts);
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

/** Text-like bytes with no run of 4, so the RLE1 text is the block. */
std::vector<uint8_t>
noRunsOf4(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i) {
        do {
            data[i] = static_cast<uint8_t>('a' + rng.below(26));
        } while (i >= 3 && data[i] == data[i - 1] &&
                 data[i] == data[i - 2] && data[i] == data[i - 3]);
    }
    return data;
}

/** Runs of each length in @p lens, with literal bytes between and
 *  adjacent runs of different bytes. */
std::vector<uint8_t>
runsOf(std::initializer_list<size_t> lens, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> data;
    uint8_t byte = 0;
    for (size_t len : lens) {
        for (int k = 0; k < 3; ++k) {
            byte = static_cast<uint8_t>(byte + 1 + rng.below(255));
            data.insert(data.end(), len, byte);
            data.push_back(static_cast<uint8_t>(byte ^ 0x80));
            byte ^= 0x80;
        }
    }
    return data;
}

TEST(Bwc, Rle1MatchesTheReference)
{
    // Runs below, at and around the group of 4 bytes and a count, one
    // full group (259), one byte past it, and a run of 1000 (three
    // groups and a rest of 223); then random bytes and suite planes.
    std::vector<std::vector<uint8_t>> blocks = {
        {}, {7}, {7, 7, 7, 7},
        runsOf({1, 3, 4, 5, 259, 260, 1000}, 1),
        runsOf({1000, 4, 260, 3, 259, 5, 1}, 2),
        runsOf({262, 263, 518, 519, 2}, 3),
        makeData(0, 100000, 4), makeData(2, 100000, 5),
        bench::suitePlanes(1 << 20, 6),
    };
    for (size_t b = 0; b < blocks.size(); ++b) {
        const std::vector<uint8_t> &data = blocks[b];
        const std::vector<uint8_t> want = ref::rle1Encode(data);
        ASSERT_LE(want.size(), comp::rle1Bound(data.size())) << b;
        ASSERT_TRUE(ref::rle1Decode(want) == data) << b;

        std::vector<uint8_t> text(comp::rle1Bound(data.size()) + 1);
        text.resize(comp::rle1Encode(data.data(), data.size(), text.data()));
        EXPECT_TRUE(text == want) << "block " << b;
        std::vector<uint8_t> back(data.size());
        comp::rle1Decode(want.data(), want.size(), back.data(), back.size());
        EXPECT_TRUE(back == data) << "block " << b;

        // The codec transforms that text, and decodes it back.
        auto frame = bwcFrameOf(data);
        BwcFrame f = splitFrame(frame);
        EXPECT_EQ(f.text_len, want.size()) << "block " << b;
        EXPECT_TRUE(textOf(f) == want) << "block " << b;
        EXPECT_TRUE(bwcDecode(frame, data.size()) == data) << "block " << b;
    }

    // Any text decodes as the reference state machine reads it, not
    // only an encoder's: here low-entropy random bytes, whose counts
    // are followed by more of the run's byte.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        auto text = makeData(2, 4000, seed);
        text.push_back(3); // no text ends on 4 equal bytes
        const std::vector<uint8_t> want = ref::rle1Decode(text);
        std::vector<uint8_t> got(want.size());
        comp::rle1Decode(text.data(), text.size(), got.data(), got.size());
        EXPECT_TRUE(got == want) << "seed " << seed;
        EXPECT_TRUE(throwsErrorWith(
            [&] {
                comp::rle1Decode(text.data(), text.size(), got.data(),
                                 got.size() - 1);
            },
            "size mismatch"));
    }
}

TEST(Bwc, Rle1RunsCrossingBlockEdges)
{
    // 4 KiB blocks over runs of 1000, 259 and 5 bytes: runs are cut at
    // every block edge, and each block codes its own part alone.
    std::vector<uint8_t> data;
    for (int k = 0; k < 12; ++k) {
        auto part = runsOf({1000, 259, 5, 1000}, 10 + k);
        data.insert(data.end(), part.begin(), part.end());
    }
    const size_t block = 4096;
    auto stream = comp::compressAll(comp::codecByName("bwc"), data.data(),
                                    data.size(), block);
    EXPECT_TRUE(comp::decompressAll(comp::codecByName("bwc"), stream.data(),
                                    stream.size()) == data);
    const comp::StreamLayout layout = test::layoutOf(stream);
    ASSERT_EQ(layout.frames.size(), (data.size() + block - 1) / block);
    for (size_t f = 0; f < layout.frames.size(); ++f) {
        const size_t at = test::payloadStart(layout, f);
        std::vector<uint8_t> frame(
            stream.begin() + at,
            stream.begin() + at + layout.frames[f].comp_size);
        std::vector<uint8_t> raw(
            data.begin() + f * block,
            data.begin() + std::min(data.size(), (f + 1) * block));
        EXPECT_TRUE(textOf(splitFrame(frame)) == ref::rle1Encode(raw))
            << "frame " << f;
    }
}

TEST(Bwc, Rle1CountBombIsASizeMismatchNotAnAllocation)
{
    // A hand-built block whose RLE1 text is all groups of 259 bytes
    // (4 bytes and a count of 255): 1.25 MiB of text, the longest a
    // 1 MiB frame may declare, that would expand to 68 MB. The counts
    // are checked against the 1 MiB the frame declares.
    const size_t raw = size_t(1) << 20;
    std::vector<uint8_t> text;
    while (text.size() < comp::rle1Bound(raw))
        text.insert(text.end(), {'a', 'a', 'a', 'a', 255});
    ASSERT_EQ(text.size(), comp::rle1Bound(raw));
    auto bwt = comp::bwtForward(text.data(), text.size());
    std::vector<uint8_t> block;
    util::VectorSink sink(block);
    util::writeVarint(sink, text.size());
    for (uint64_t row : bwt.starts)
        util::writeVarint(sink, row);
    comp::MtfCoder mtf;
    for (uint8_t &b : bwt.data)
        b = mtf.encode(b);
    auto symbols = comp::rleEncode(bwt.data.data(), bwt.data.size());
    std::vector<uint64_t> freq(comp::kRleAlphabet, 0);
    for (uint16_t sym : symbols)
        freq[sym]++;
    comp::HuffmanEncoder enc(freq);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (uint16_t sym : symbols)
        enc.writeSymbol(bw, sym);
    bw.alignAndFlush();

    long before = peakRssKib();
    std::vector<uint8_t> out;
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            util::MemorySource src(block.data(), block.size());
            comp::BwcCodec().decompressBlock(src, raw, out);
        },
        "size mismatch"));
    EXPECT_LE(out.size(), raw);
    EXPECT_LT(peakRssKib() - before, 64 << 10) << "KiB";
}

TEST(Bwc, TextLengthAboveItsBoundIsRefused)
{
    // A frame may declare at most raw + raw / 4 bytes of RLE1 text;
    // one more is refused before anything is read or allocated.
    auto data = makeData(3, 4096, 8);
    BwcFrame f = splitFrame(bwcFrameOf(data));
    f.text_len = comp::rle1Bound(data.size()) + 1;
    std::vector<uint8_t> out;
    EXPECT_TRUE(throwsErrorWith(
        [&] { bwcDecode(joinFrame(f), data.size()); },
        "corrupt container: bwc RLE1 text of 5121 bytes"));
}

TEST(Bwc, FramesCarryOneStartRowPerChain)
{
    // Around the chain lengths L = max(2^12, pow2ceil(ceil(n / 16))) of
    // an RLE1 text of n bytes: a frame opens with the text's length and
    // exactly ceil(n / L) start rows, then the Huffman table. The
    // symbols behind them decode through the reference with those rows
    // to the reference's RLE1 text. Blocks with no run of 4 have a text
    // as long as the block; the suite planes' is about a quarter of
    // theirs. The block's CRC-32 is not in the frame but in the
    // stream's index.
    constexpr size_t S = 4096, M = size_t(1) << 18;
    const std::pair<size_t, size_t> cases[] = {
        {S - 1, 1},      {S, 1},         {S + 1, 2},
        {2 * S + 1, 3},  {8 * S, 8},     {8 * S + 5, 9},
        {16 * S, 16},    {16 * S + 1, 9}, {12 * M + 7, 13},
    };
    for (auto [n, chains] : cases) {
        for (bool planes : {false, true}) {
            auto data = planes ? bench::suitePlanes(n, n + 1)
                               : noRunsOf4(n, n);
            auto frame = bwcFrameOf(data);
            BwcFrame f = splitFrame(frame);
            const std::vector<uint8_t> want = ref::rle1Encode(data);
            ASSERT_EQ(f.text_len, want.size());
            if (!planes) {
                EXPECT_EQ(f.starts.size(), chains) << n;
            }
            for (uint64_t row : f.starts) {
                EXPECT_GE(row, 1u);
                EXPECT_LE(row, f.text_len);
            }
            EXPECT_TRUE(textOf(f) == want)
                << n << (planes ? " planes" : " text");
            EXPECT_TRUE(bwcDecode(frame, n) == data)
                << n << (planes ? " planes" : " text");

            auto stream = comp::compressAll(comp::codecByName("bwc"),
                                            data.data(), n, n);
            comp::StreamLayout layout = test::layoutOf(stream);
            ASSERT_EQ(layout.frames.size(), 1u);
            EXPECT_EQ(layout.frames[0].comp_size, frame.size());
            EXPECT_EQ(layout.frames[0].crc, util::crc32(data.data(), n));
            EXPECT_TRUE(comp::decompressAll(comp::codecByName("bwc"),
                                            stream.data(),
                                            stream.size()) == data)
                << n << (planes ? " planes" : " text");
        }
    }
}

TEST(Bwc, CorruptStartRowsAreErrors)
{
    // A block whose RLE1 text has three chains. Each corruption must
    // fail as a util::Error, before the walk reads out of range (the
    // sanitizer build checks that part).
    const size_t n = 2 * comp::bwtChainBytes(1) + 17;
    auto data = noRunsOf4(n, 7);
    auto frame = bwcFrameOf(data);
    BwcFrame good = splitFrame(frame);
    ASSERT_EQ(good.text_len, n);
    ASSERT_EQ(good.starts.size(), 3u);
    ASSERT_TRUE(bwcDecode(joinFrame(good), n) == data);
    auto refused = [&](const BwcFrame &f, const std::string &why) {
        return throwsErrorWith([&] { bwcDecode(joinFrame(f), n); }, why);
    };

    BwcFrame zero = good;
    zero.starts[1] = 0;
    EXPECT_TRUE(refused(zero, "start row out of range"));
    BwcFrame above = good;
    above.starts[2] = good.text_len + 1;
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

TEST(Codecs, BitStreamsEndExactlyAtTheirFrameEnd)
{
    // Every cut of a bwc or lzh frame's last bytes leaves its bit
    // stream short, and a byte after it is left over: each fails as one
    // Status, decoded from a heap copy of exactly the frame's bytes (so
    // a read past them is a sanitizer error), never as a crash.
    auto data = makeData(3, 40'000, 21);
    for (const char *name : {"bwc", "lzh"}) {
        const comp::Codec &codec = comp::codecByName(name);
        std::vector<uint8_t> frame;
        util::VectorSink sink(frame);
        codec.compressBlock(data.data(), data.size(), sink);
        auto decode = [&](const std::vector<uint8_t> &bytes) {
            return util::toStatus([&] {
                std::vector<uint8_t> exact(bytes), out;
                comp::FrameIndexEntry e{data.size(), exact.size(),
                                        util::crc32(data.data(),
                                                    data.size())};
                comp::decodeSeekableFrame(codec, exact.data(), e, out);
            });
        };
        EXPECT_TRUE(decode(frame).ok()) << name;
        for (size_t cut : {size_t(1), size_t(2), size_t(9)}) {
            util::Status st = decode(
                std::vector<uint8_t>(frame.begin(), frame.end() - cut));
            EXPECT_NE(st.message().find("frame overruns its declared "
                                        "compressed length"),
                      std::string::npos)
                << name << " cut " << cut << ": " << st.message();
        }
        std::vector<uint8_t> longer = frame;
        longer.push_back(0);
        util::Status st = decode(longer);
        EXPECT_NE(st.message().find("bytes left after the end"),
                  std::string::npos)
            << name << ": " << st.message();
    }
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

TEST(Lzh, MatchBombIsASizeMismatchNotAnAllocation)
{
    // A hand-built block of one literal and 900,000 longest matches
    // (258 bytes at distance 1), about 900 KB of codes that would
    // expand to 232 MB, in a frame that declares 4096 bytes: within
    // the framing's compressed-size bound, so the frame reaches the
    // codec, which must stop at the declared size.
    constexpr int kLiteral = 'x', kEob = 256, kLen258 = 257 + 15;
    constexpr int kMatches = 900'000;
    std::vector<uint8_t> block;
    util::VectorSink sink(block);
    std::vector<uint64_t> ll_freq(257 + 16, 0), d_freq(32, 0);
    ll_freq[kLiteral] = 1;
    ll_freq[kLen258] = kMatches;
    ll_freq[kEob] = 1;
    d_freq[0] = kMatches; // distance 1
    comp::HuffmanEncoder ll(ll_freq), d(d_freq);
    util::BitWriter bw(sink);
    ll.writeTable(bw);
    d.writeTable(bw);
    ll.writeSymbol(bw, kLiteral);
    for (int i = 0; i < kMatches; ++i) {
        ll.writeSymbol(bw, kLen258);
        bw.writeBits(254 - 192, 6); // length 258 = 4 + 192 + 62
        d.writeSymbol(bw, 0);
    }
    ll.writeSymbol(bw, kEob);
    bw.alignAndFlush();

    const uint64_t raw = 4096;
    std::vector<uint8_t> stream;
    util::VectorSink ssink(stream);
    util::writeVarint(ssink, raw + 1);
    util::writeVarint(ssink, block.size());
    ssink.write(block.data(), block.size());
    util::writeVarint(ssink, 0);
    ssink.writeByte(1); // frame index: one frame
    util::writeVarint(ssink, 1);
    util::writeVarint(ssink, raw);
    util::writeVarint(ssink, block.size());
    util::writeLE<uint32_t>(ssink, 0); // the frame's CRC, never reached

    long before = peakRssKib();
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::decompressAll(comp::codecByName("lzh"), stream.data(),
                                stream.size());
        },
        "LZH block size mismatch"));
    EXPECT_LT(peakRssKib() - before, 64 << 10) << "KiB";
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

TEST(Stream, TrailingBytesAreRejected)
{
    // A stream ends with its frame index; decompressAll reads a whole
    // stream and nothing else, so bytes after the index are an error,
    // not ignored.
    auto data = makeData(1, 10000, 8);
    auto stream = comp::compressAll(comp::codecByName("store"), data.data(),
                                    data.size(), 4096);
    EXPECT_EQ(comp::decompressAll(comp::codecByName("store"), stream.data(),
                                  stream.size()),
              data);
    stream.push_back(0xAA);
    stream.push_back(0xBB);
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::decompressAll(comp::codecByName("store"), stream.data(),
                                stream.size());
        },
        "trailing bytes"));
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

TEST(Stream, EveryTruncationIsAnError)
{
    // Cut a three-frame "store" stream (no codec checksum) at every
    // length: a cut at a frame boundary or in the frame index (a
    // frame's CRC-32 included) fails as surely as one inside a
    // payload.
    auto data = makeData(3, 5000, 10);
    auto stream = comp::compressAll(comp::codecByName("store"), data.data(),
                                    data.size(), 2048);
    for (size_t keep = 0; keep < stream.size(); ++keep)
        EXPECT_THROW(comp::decompressAll(comp::codecByName("store"),
                                         stream.data(), keep),
                     util::Error)
            << "kept " << keep << " of " << stream.size() << " bytes";
}

TEST(Stream, EveryFrameIsCheckedAgainstItsIndexedCrc)
{
    // "store" frames hold their raw bytes, so only the index's CRC-32s
    // can tell a changed frame. Flip one payload bit of each frame in
    // turn, then swap two equal-size frames: the sizes still agree with
    // the index, but the CRCs sit there by frame position.
    auto data = makeData(0, 3 * 2048, 12);
    const comp::Codec &store = comp::codecByName("store");
    auto stream = comp::compressAll(store, data.data(), data.size(), 2048);
    util::MemorySource scan(stream.data(), stream.size());
    const comp::StreamLayout layout = comp::scanSeekableStream(scan);
    ASSERT_EQ(layout.frames.size(), 3u);
    const size_t header = 4; // varint(2049) and varint(2048)
    for (size_t f = 0; f < 3; ++f) {
        auto bad = stream;
        bad[layout.comp_starts[f] + header + 100 * f] ^= 0x08;
        EXPECT_TRUE(throwsErrorWith(
            [&] { comp::decompressAll(store, bad.data(), bad.size()); },
            "frame CRC mismatch"))
            << "frame " << f;
    }
    auto swapped = stream;
    std::swap_ranges(swapped.begin() + layout.comp_starts[0],
                     swapped.begin() + layout.comp_starts[1],
                     swapped.begin() + layout.comp_starts[2]);
    EXPECT_TRUE(throwsErrorWith(
        [&] {
            comp::decompressAll(store, swapped.data(), swapped.size());
        },
        "frame CRC mismatch"));
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

TEST(Bwc, AllRunsOf4AtTheCapFillTheLfRows)
{
    // The worst case: a block at the cap, all runs of 4, has the
    // longest text, 1.25 times the block, which is kMaxBwtBlock. Last in
    // the file: its scratch raises this process's peak RSS, which the
    // bomb tests above measure.
    std::vector<uint8_t> data(comp::kMaxBwcBlock);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = (i / 4) % 2 != 0 ? 'y' : 'x';
    auto frame = bwcFrameOf(data);
    BwcFrame f = splitFrame(frame);
    EXPECT_EQ(f.text_len, comp::kMaxBwtBlock);
    EXPECT_EQ(f.starts.size(), comp::bwtChainCount(comp::kMaxBwtBlock));
    EXPECT_TRUE(bwcDecode(frame, data.size()) == data);
}

} // namespace
} // namespace atc

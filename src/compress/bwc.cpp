#include "compress/bwc.hpp"

#include "compress/bwt.hpp"
#include "compress/huffman.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "obs/metrics.hpp"
#include "util/bitio.hpp"
#include "util/mmap.hpp"

namespace atc::comp {

namespace {

// Stage-split codec accounting: aggregate micros per pipeline stage.
// The decoder fuses MTF + RLE into its entropy stage, so it has two.
// Handles cached once; hot loops pay one relaxed add per block per
// stage.
struct EncodeStageMetrics {
    obs::Counter &bwt_us;
    obs::Counter &mtf_rle_us;
    obs::Counter &entropy_us;
};

struct DecodeStageMetrics {
    obs::Counter &bwt_us;
    obs::Counter &entropy_us;
};

EncodeStageMetrics &
encodeStages()
{
    static EncodeStageMetrics m{
        obs::Registry::global().counter("codec.encode.bwt_us"),
        obs::Registry::global().counter("codec.encode.mtf_rle_us"),
        obs::Registry::global().counter("codec.encode.entropy_us"),
    };
    return m;
}

DecodeStageMetrics &
decodeStages()
{
    static DecodeStageMetrics m{
        obs::Registry::global().counter("codec.decode.bwt_us"),
        obs::Registry::global().counter("codec.decode.entropy_us"),
    };
    return m;
}

/**
 * Per-thread scratch of both directions, reused from block to block
 * (the BWT's word array is bwt.cpp's). A thread that encodes and
 * decodes, such as a caller that helps its pool, holds one set.
 */
struct Scratch
{
    util::ScratchPages text;       ///< the RLE1 text
    std::vector<uint64_t> starts;  ///< its start rows
    std::vector<uint16_t> symbols; ///< encode: zero-run symbols
    std::vector<BwtRun> runs;      ///< decode: runs of the BWT
};

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
}

}  // namespace

static_assert(rle1Bound(kMaxBwcBlock) <= kMaxBwtBlock,
              "the RLE1 text of the largest block must fit the LF rows");

void
BwcCodec::compressBlock(const uint8_t *data, size_t n,
                        util::ByteSink &out) const
{
    ATC_CHECK(n <= kMaxBwcBlock, "bwc block above its cap of " +
                                     std::to_string(kMaxBwcBlock) +
                                     " bytes");
    EncodeStageMetrics &m = encodeStages();

    Scratch &s = scratch();

    obs::StageTimer bwt_t(m.bwt_us);
    uint8_t *text = s.text.reserve(rle1Bound(n));
    const size_t len = rle1Encode(data, n, text);
    s.starts.resize(bwtChainCount(len));
    uint8_t *bwt = bwtForward(text, len, s.starts.data());
    bwt_t.stop();
    util::writeVarint(out, len);
    for (uint64_t row : s.starts)
        util::writeVarint(out, row);

    obs::StageTimer mtf_t(m.mtf_rle_us);
    MtfCoder mtf;
    for (size_t i = 0; i < len; ++i)
        bwt[i] = mtf.encode(bwt[i]);
    rleEncode(bwt, len, s.symbols);
    mtf_t.stop();

    obs::StageTimer entropy_t(m.entropy_us);
    std::vector<uint64_t> freq(kRleAlphabet, 0);
    for (uint16_t sym : s.symbols)
        freq[sym]++;
    HuffmanEncoder enc(freq);

    util::BitWriter bw(out);
    enc.writeTable(bw);
    for (uint16_t sym : s.symbols)
        enc.writeSymbol(bw, sym);
    bw.alignAndFlush();
}

void
BwcCodec::decompressBlock(util::ByteSource &in, size_t raw_size,
                          std::vector<uint8_t> &out) const
{
    // No writer produces a larger block, or a longer RLE1 text, so only
    // a corrupt frame declares one; refuse it before anything is
    // allocated.
    ATC_CHECK(raw_size <= kMaxBwcBlock,
              "corrupt container: bwc frame of " + std::to_string(raw_size) +
                  " bytes exceeds the block cap of " +
                  std::to_string(kMaxBwcBlock));
    const uint64_t len = util::readVarint(in);
    ATC_CHECK(len <= rle1Bound(raw_size),
              "corrupt container: bwc RLE1 text of " + std::to_string(len) +
                  " bytes for a block of " + std::to_string(raw_size));
    DecodeStageMetrics &m = decodeStages();

    Scratch &s = scratch();
    s.starts.resize(bwtChainCount(len));
    for (uint64_t &row : s.starts)
        row = util::readVarint(in);

    // The Huffman decode feeds the zero-run and MTF decode one symbol
    // at a time; the rest of the frame is the bit stream.
    obs::StageTimer entropy_t(m.entropy_us);
    util::readBitStream(in, [&](util::BitReader &br) {
        const HuffmanDecoder dec = HuffmanDecoder::readTable(br, kRleAlphabet);
        mtfRleToRuns([&] { return dec.decode(br); }, len, s.runs);
    });
    entropy_t.stop();

    obs::StageTimer bwt_t(m.bwt_us);
    uint8_t *text = s.text.reserve(len);
    bwtInverseRuns(s.runs.data(), s.runs.size(), len, s.starts.data(), text);
    out.resize(raw_size);
    rle1Decode(text, len, out.data(), raw_size);
    bwt_t.stop();
}

} // namespace atc::comp

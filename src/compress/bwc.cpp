#include "compress/bwc.hpp"

#include "compress/bwt.hpp"
#include "compress/huffman.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "obs/metrics.hpp"
#include "util/bitio.hpp"

namespace atc::comp {

namespace {

// Stage-split codec accounting: aggregate micros per pipeline stage,
// both directions. Handles cached once; hot loops pay one relaxed
// add per block per stage.
struct CodecStageMetrics {
    obs::Counter &bwt_us;
    obs::Counter &mtf_rle_us;
    obs::Counter &entropy_us;
};

CodecStageMetrics &
encodeStages()
{
    static CodecStageMetrics m{
        obs::Registry::global().counter("codec.encode.bwt_us"),
        obs::Registry::global().counter("codec.encode.mtf_rle_us"),
        obs::Registry::global().counter("codec.encode.entropy_us"),
    };
    return m;
}

CodecStageMetrics &
decodeStages()
{
    static CodecStageMetrics m{
        obs::Registry::global().counter("codec.decode.bwt_us"),
        obs::Registry::global().counter("codec.decode.mtf_rle_us"),
        obs::Registry::global().counter("codec.decode.entropy_us"),
    };
    return m;
}

}  // namespace

void
BwcCodec::compressBlock(const uint8_t *data, size_t n,
                        util::ByteSink &out) const
{
    ATC_CHECK(n <= kMaxBwcBlock, "bwc block above the 2^24 - 1 byte cap");
    CodecStageMetrics &m = encodeStages();

    obs::StageTimer bwt_t(m.bwt_us);
    BwtResult bwt = bwtForward(data, n);
    bwt_t.stop();
    for (uint64_t row : bwt.starts)
        util::writeVarint(out, row);

    obs::StageTimer mtf_t(m.mtf_rle_us);
    std::vector<uint8_t> mtf = mtfEncode(bwt.data.data(), bwt.data.size());
    bwt.data.clear();
    bwt.data.shrink_to_fit();
    std::vector<uint16_t> symbols = rleEncode(mtf.data(), mtf.size());
    mtf.clear();
    mtf.shrink_to_fit();
    mtf_t.stop();

    obs::StageTimer entropy_t(m.entropy_us);
    std::vector<uint64_t> freq(kRleAlphabet, 0);
    for (uint16_t s : symbols)
        freq[s]++;
    HuffmanEncoder enc(freq);

    util::BitWriter bw(out);
    enc.writeTable(bw);
    for (uint16_t s : symbols)
        enc.writeSymbol(bw, s);
    bw.alignAndFlush();
}

void
BwcCodec::decompressBlock(util::ByteSource &in, size_t raw_size,
                          std::vector<uint8_t> &out) const
{
    // No writer produces a larger block, so only a corrupt frame header
    // declares one; refuse it before anything is allocated.
    ATC_CHECK(raw_size <= kMaxBwcBlock,
              "corrupt container: bwc frame of " + std::to_string(raw_size) +
                  " bytes exceeds the block cap of " +
                  std::to_string(kMaxBwcBlock));
    CodecStageMetrics &m = decodeStages();

    // Per-thread scratch, reused from block to block.
    thread_local std::vector<uint64_t> starts;
    thread_local std::vector<uint16_t> symbols;
    thread_local std::vector<BwtRun> runs;

    starts.resize(bwtChainCount(raw_size));
    for (uint64_t &row : starts)
        row = util::readVarint(in);

    obs::StageTimer entropy_t(m.entropy_us);
    util::BitReader br(in);
    HuffmanDecoder dec = HuffmanDecoder::readTable(br, kRleAlphabet);
    symbols.clear();
    for (;;) {
        int sym = dec.decode(br);
        // A valid block has at most raw_size + 1 symbols: a zero run of
        // r takes at most r digits, a literal one symbol, plus the EOB.
        ATC_CHECK(symbols.size() <= raw_size, "BWC block size mismatch");
        symbols.push_back(static_cast<uint16_t>(sym));
        if (sym == kEob)
            break;
    }
    br.align();
    entropy_t.stop();

    obs::StageTimer mtf_t(m.mtf_rle_us);
    mtfRleToRuns(symbols.data(), symbols.size(), raw_size, runs);
    mtf_t.stop();

    obs::StageTimer bwt_t(m.bwt_us);
    out.resize(raw_size);
    bwtInverseRuns(runs.data(), runs.size(), raw_size, starts.data(),
                   out.data());
    bwt_t.stop();
}

} // namespace atc::comp

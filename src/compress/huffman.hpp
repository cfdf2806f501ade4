/**
 * @file
 * Canonical, length-limited Huffman coding.
 *
 * Entropy back end for both the BWC and LZH codecs. Code lengths are
 * derived from symbol frequencies with a standard Huffman tree, then
 * adjusted (Kraft-sum rebalancing, as in zlib) so no code exceeds the
 * length limit. Codes are canonical, so only the length of each symbol
 * needs to be stored in the stream.
 *
 * Table layout, as bzip2's: one bit per group of 16 symbols that has a
 * symbol in use (16 bits of 16 groups for 256 symbols; the bwc
 * alphabet of 258 takes 17), then 16 in-use bits per such group, then
 * the lengths of the symbols in use in symbol order: a 5-bit first
 * length, and per symbol the steps from the length before it ("10"
 * one longer, "11" one shorter) ending in a "0". A length stays in
 * 1..kMaxCodeLen at every step.
 *
 * The decoder reads the next kLookupBits bits of the stream once per
 * symbol and finds a code of that length or shorter in one table
 * lookup; a longer code falls back to the canonical walk over the
 * lengths above kLookupBits.
 */

#ifndef ATC_COMPRESS_HUFFMAN_HPP_
#define ATC_COMPRESS_HUFFMAN_HPP_

#include <cstdint>
#include <vector>

#include "util/bitio.hpp"

namespace atc::comp {

/** Maximum supported code length. */
constexpr int kMaxCodeLen = 24;

/** Largest alphabet a table holds: symbols fit 9 bits. */
constexpr int kMaxAlphabet = 512;

/**
 * Compute canonical code lengths for @p freq (0 length = unused symbol).
 *
 * @param freq  per-symbol occurrence counts
 * @param limit maximum code length, <= kMaxCodeLen
 * @return per-symbol code lengths forming a prefix-free code
 */
std::vector<uint8_t> huffmanLengths(const std::vector<uint64_t> &freq,
                                    int limit = kMaxCodeLen);

/** Encoder table mapping symbols to canonical codes. */
class HuffmanEncoder
{
  public:
    /** Build codes directly from frequencies. */
    explicit HuffmanEncoder(const std::vector<uint64_t> &freq,
                            int limit = kMaxCodeLen);

    /** Build codes from precomputed lengths. */
    explicit HuffmanEncoder(const std::vector<uint8_t> &lengths);

    /** Serialize the code lengths (in-use map, then deltas) into
     *  @p bw; at least one symbol must be in use. */
    void writeTable(util::BitWriter &bw) const;

    /** Emit the code of @p symbol; the symbol must be in use. */
    void
    writeSymbol(util::BitWriter &bw, int symbol) const
    {
        bw.writeBits(codes_[symbol], lengths_[symbol]);
    }

    /** @return code length per symbol (0 = unused). */
    const std::vector<uint8_t> &lengths() const { return lengths_; }

  private:
    void buildCodes();

    std::vector<uint8_t> lengths_;
    std::vector<uint32_t> codes_;
};

/** Decoder for canonical codes. */
class HuffmanDecoder
{
  public:
    /** Stream bits one table lookup decodes. */
    static constexpr int kLookupBits = 11;

    /**
     * Build from explicit code lengths (at most kMaxAlphabet).
     * @throws util::Error on a length above kMaxCodeLen or lengths
     *         that break the Kraft inequality
     */
    explicit HuffmanDecoder(const std::vector<uint8_t> &lengths)
        : HuffmanDecoder(lengths.data(), lengths.size())
    {}

    /**
     * Read a table serialized by HuffmanEncoder::writeTable.
     * @throws util::Error on an empty in-use map, a symbol in use past
     *         @p alphabet, a length step outside 1..kMaxCodeLen, or a
     *         table the constructor refuses
     */
    static HuffmanDecoder readTable(util::BitReader &br, int alphabet);

    /** @return the largest symbol in use, or -1 if none is. */
    int maxSymbol() const { return max_symbol_; }

    /** Decode one symbol; throws on a code no symbol has. */
    int
    decode(util::BitReader &br) const
    {
        br.refill();
        const uint16_t e = lookup_[br.peek(kLookupBits)];
        if (e >= kLenUnit) {
            br.consume(e / kLenUnit);
            return e % kLenUnit;
        }
        return decodeLong(br);
    }

  private:
    /** A lookup entry is len * kLenUnit + symbol; 0 = no short code. */
    static constexpr uint16_t kLenUnit = kMaxAlphabet;

    HuffmanDecoder(const uint8_t *lengths, size_t n);

    int decodeLong(util::BitReader &br) const;

    // first_code_[l] is the canonical code value of the first code of
    // length l; first_index_[l] indexes sorted_symbols_.
    uint32_t first_code_[kMaxCodeLen + 2] = {};
    int32_t first_index_[kMaxCodeLen + 2] = {};
    uint16_t count_[kMaxCodeLen + 2] = {};
    uint16_t sorted_symbols_[kMaxAlphabet];
    int max_symbol_ = -1;
    uint16_t lookup_[1 << kLookupBits] = {};
};

} // namespace atc::comp

#endif // ATC_COMPRESS_HUFFMAN_HPP_

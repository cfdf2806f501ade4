/**
 * @file
 * Reference bit I/O and Huffman decoder for the tests: one bit per
 * loop step, one byte per sink or source call. The library moves whole
 * fields through a 64-bit accumulator (util::BitWriter,
 * util::BitReader) and decodes a symbol with one table lookup
 * (comp::HuffmanDecoder); tests compare the two.
 */

#ifndef ATC_TESTS_REFERENCE_HUFFMAN_HPP_
#define ATC_TESTS_REFERENCE_HUFFMAN_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/huffman.hpp"
#include "util/bytestream.hpp"
#include "util/status.hpp"

namespace atc::ref {

/** MSB-first bit writer: a byte reaches the sink as soon as it is full. */
class BitWriter
{
  public:
    explicit BitWriter(util::ByteSink &sink) : sink_(sink) {}

    void
    writeBits(uint32_t value, int nbits)
    {
        for (int i = nbits - 1; i >= 0; --i) {
            acc_ = static_cast<uint8_t>(acc_ << 1 | ((value >> i) & 1u));
            if (++fill_ == 8) {
                sink_.writeByte(acc_);
                acc_ = 0;
                fill_ = 0;
            }
        }
    }

    void
    alignAndFlush()
    {
        if (fill_ > 0)
            writeBits(0, 8 - fill_);
    }

  private:
    util::ByteSink &sink_;
    uint8_t acc_ = 0;
    int fill_ = 0;
};

/** MSB-first bit reader, one byte per readExact. */
class BitReader
{
  public:
    explicit BitReader(util::ByteSource &src) : src_(src) {}

    uint32_t
    readBit()
    {
        if (fill_ == 0) {
            src_.readExact(&acc_, 1);
            fill_ = 8;
        }
        --fill_;
        return (acc_ >> fill_) & 1u;
    }

    uint32_t
    readBits(int nbits)
    {
        uint32_t value = 0;
        for (int i = 0; i < nbits; ++i)
            value = (value << 1) | readBit();
        return value;
    }

  private:
    util::ByteSource &src_;
    uint8_t acc_ = 0;
    int fill_ = 0;
};

/** Code lengths of a table in comp::HuffmanEncoder::writeTable's
 *  layout, read a bit at a time. */
inline std::vector<uint8_t>
readLengths(BitReader &br, int alphabet)
{
    const int groups = (alphabet + 15) / 16;
    std::vector<bool> group(groups);
    for (int g = 0; g < groups; ++g)
        group[g] = br.readBit();
    std::vector<int> used;
    for (int g = 0; g < groups; ++g) {
        for (int i = 0; group[g] && i < 16; ++i) {
            if (br.readBit())
                used.push_back(16 * g + i);
        }
    }
    ATC_CHECK(!used.empty(), "empty in-use map");
    ATC_CHECK(used.back() < alphabet, "symbol past the alphabet");
    std::vector<uint8_t> lengths(alphabet, 0);
    int cur = static_cast<int>(br.readBits(5));
    for (int sym : used) {
        while (br.readBit())
            cur += br.readBit() ? -1 : 1;
        ATC_CHECK(cur >= 1 && cur <= comp::kMaxCodeLen, "length out of range");
        lengths[sym] = static_cast<uint8_t>(cur);
    }
    return lengths;
}

/** Canonical Huffman decoder that extends its code one bit at a time. */
class HuffmanDecoder
{
  public:
    explicit HuffmanDecoder(const std::vector<uint8_t> &lengths)
    {
        for (size_t i = 0; i < lengths.size(); ++i) {
            if (lengths[i] > 0) {
                count_[lengths[i]]++;
                sorted_.push_back(static_cast<uint16_t>(i));
            }
        }
        std::stable_sort(sorted_.begin(), sorted_.end(),
                         [&](uint16_t a, uint16_t b) {
                             return lengths[a] < lengths[b];
                         });
        uint32_t code = 0;
        int32_t index = 0;
        for (int l = 1; l <= comp::kMaxCodeLen; ++l) {
            code <<= 1;
            first_code_[l] = code;
            first_index_[l] = index;
            code += count_[l];
            index += count_[l];
        }
    }

    int
    decode(BitReader &br) const
    {
        uint32_t code = 0;
        for (int l = 1; l <= comp::kMaxCodeLen; ++l) {
            code = (code << 1) | br.readBit();
            if (code >= first_code_[l] && code - first_code_[l] < count_[l])
                return sorted_[first_index_[l] + code - first_code_[l]];
        }
        util::raise("invalid huffman code in stream");
    }

  private:
    uint32_t first_code_[comp::kMaxCodeLen + 1] = {};
    int32_t first_index_[comp::kMaxCodeLen + 1] = {};
    uint32_t count_[comp::kMaxCodeLen + 1] = {};
    std::vector<uint16_t> sorted_;
};

} // namespace atc::ref

#endif // ATC_TESTS_REFERENCE_HUFFMAN_HPP_

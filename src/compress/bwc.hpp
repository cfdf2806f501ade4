/**
 * @file
 * BWC — the Burrows-Wheeler block codec.
 *
 * From-scratch stand-in for the paper's bzip2 back end, same algorithm
 * family: BWT (via SA-IS) -> move-to-front -> zero-run RLE -> canonical
 * Huffman, with a CRC-32 integrity check per block.
 *
 * Block layout (after the stream framing's size header):
 *   u32  crc32 of the raw block
 *   C varints: the BWT start rows, the rows of text positions
 *        k * 2^17 for k = 0 .. C - 1, where C = ceil(raw_size / 2^17)
 *        follows from the frame's raw size (the first is the primary
 *        index; a block of at most 2^17 bytes has only that one)
 *   huffman table (258 x 5 bits) + coded symbols, byte-aligned at end
 *
 * Decoding costs time per RLE symbol except in the final walk: the
 * Huffman symbols become runs of the BWT string in one pass
 * (mtfRleToRuns), the runs fill the packed LF array and the walk
 * writes the block into the caller's buffer (bwtInverseRuns), up to
 * eight chains at once from the start rows. The start, symbol, run and
 * LF arrays are per-thread scratch. The packed array
 * caps a block at kMaxBwcBlock = 2^24 - 1 bytes, which both directions
 * enforce.
 */

#ifndef ATC_COMPRESS_BWC_HPP_
#define ATC_COMPRESS_BWC_HPP_

#include "compress/bwt.hpp"
#include "compress/codec.hpp"

namespace atc::comp {

/** Largest bwc block, 2^24 - 1 bytes (18x bzip2's largest). */
constexpr size_t kMaxBwcBlock = kMaxBwtBlock;

/** Burrows-Wheeler codec; stateless and thread-compatible. */
class BwcCodec : public Codec
{
  public:
    std::string name() const override { return "bwc"; }
    void compressBlock(const uint8_t *data, size_t n,
                       util::ByteSink &out) const override;
    void decompressBlock(util::ByteSource &in, size_t raw_size,
                         std::vector<uint8_t> &out) const override;
    size_t maxBlockSize() const override { return kMaxBwcBlock; }
};

} // namespace atc::comp

#endif // ATC_COMPRESS_BWC_HPP_

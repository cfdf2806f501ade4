/**
 * @file
 * BWC — the Burrows-Wheeler block codec.
 *
 * From-scratch stand-in for the paper's bzip2 back end, same algorithm
 * family and stage order: RLE1 (runs of 4 to 259 equal bytes become 4
 * bytes and a count) -> BWT (via SA-IS) -> move-to-front -> zero-run
 * RLE -> canonical Huffman. bzip2's per-block CRC-32 is the stream
 * framing's job here: every frame's CRC sits in the stream's frame
 * index (see compress/stream.hpp).
 *
 * Block layout (after the stream framing's size header):
 *   varint: text_len, the length of the block's RLE1 text, at most
 *        raw_size + raw_size / 4
 *   C varints: the BWT start rows of that text, the rows of text
 *        positions k * L for k = 0 .. C - 1, where
 *        L = bwtChainBytes(text_len) = max(2^12,
 *        pow2ceil(ceil(text_len / 16))) and C = ceil(text_len / L),
 *        at most 16 (the first is the primary index)
 *   huffman table (in-use map + delta-coded lengths, huffman.hpp) +
 *        coded symbols, byte-aligned; the frame ends with them
 *
 * Decoding costs time per RLE symbol except in the final two passes:
 * the Huffman decode feeds its symbols one at a time into the pass
 * that turns them into runs of the BWT string (mtfRleToRuns), the runs
 * fill the packed LF array, the walk writes the RLE1 text
 * (bwtInverseRuns, every chain at once from the start rows, so a
 * 32 KiB text walks eight), and rle1Decode expands it into the
 * caller's buffer, checking every count against the bytes still to
 * come. The RLE1 text, BWT, start, run and LF arrays are per-thread
 * scratch in both directions. The packed array holds text positions
 * in 24 bits, and a text can be 1.25 times its block, so a block is
 * capped at kMaxBwcBlock = 4 * (2^24 - 1) / 5 bytes, which both
 * directions enforce.
 */

#ifndef ATC_COMPRESS_BWC_HPP_
#define ATC_COMPRESS_BWC_HPP_

#include "compress/bwt.hpp"
#include "compress/codec.hpp"

namespace atc::comp {

/**
 * Largest bwc block, 13,421,772 bytes (14x bzip2's largest): its
 * longest RLE1 text, rle1Bound(kMaxBwcBlock), is kMaxBwtBlock.
 */
constexpr size_t kMaxBwcBlock = 4 * kMaxBwtBlock / 5;

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

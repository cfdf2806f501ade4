/**
 * @file
 * LZH — LZ77 + canonical Huffman block codec (gzip-class).
 *
 * Provided as a second, faster-but-weaker back end behind the Codec
 * interface, mirroring the original tool's ability to swap bzip2 for
 * gzip. Hash-chain match finder, 64 KiB window, geometric length and
 * distance buckets with extra bits (deflate-style).
 *
 * Block layout (after the stream framing's size header; the block's
 * CRC-32 is in the stream's frame index):
 *   litlen huffman table (273 symbols; in-use map + delta-coded
 *   lengths, huffman.hpp), then the dist table (32 symbols) if the
 *   litlen table has a length symbol in use; token stream, terminated
 *   by EOB, byte-aligned; the frame ends with it
 */

#ifndef ATC_COMPRESS_LZH_HPP_
#define ATC_COMPRESS_LZH_HPP_

#include "compress/codec.hpp"

namespace atc::comp {

/** LZ77+Huffman codec; stateless and thread-compatible. */
class LzhCodec : public Codec
{
  public:
    std::string name() const override { return "lzh"; }
    void compressBlock(const uint8_t *data, size_t n,
                       util::ByteSink &out) const override;
    void decompressBlock(util::ByteSource &in, size_t raw_size,
                         std::vector<uint8_t> &out) const override;
};

} // namespace atc::comp

#endif // ATC_COMPRESS_LZH_HPP_

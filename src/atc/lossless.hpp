/**
 * @file
 * Lossless address-stream compression (paper §4): transform (bytesort,
 * unshuffle, or none) followed by a byte-level codec.
 *
 * This is both ATC's lossless mode ('c' in the original tool) and the
 * per-chunk compressor of the lossy mode. The codec is addressed by a
 * registry spec (e.g. "bwc", "lzh", "bwc:block=900k") and constructed
 * through comp::CodecRegistry, so back ends stay pluggable.
 *
 * Streams use seekable framing (see compress/stream.hpp) and end with
 * a little-endian CRC-32 trailer of the raw (transformed, pre-codec)
 * byte stream, written after the frame index. The reader verifies it
 * once the stream is drained, so corruption is loud even under codecs
 * without per-block checksums ("store") and under truncation at frame
 * boundaries.
 *
 * The writer runs the transform on the caller's thread and hands the
 * codec stage (comp::StreamCompressor) an optional borrowed pool, which
 * then encodes blocks in parallel; the bytes do not depend on it.
 */

#ifndef ATC_ATC_LOSSLESS_HPP_
#define ATC_ATC_LOSSLESS_HPP_

#include <memory>
#include <string>

#include "atc/bytesort.hpp"
#include "compress/stream.hpp"

namespace atc::core {

/** Parameters of the transform + codec pipeline. */
struct LosslessParams
{
    /** Reversible transform (paper evaluates all three). */
    Transform transform = Transform::Bytesort;
    /** Bytesort buffer B in addresses (paper: 1M "small", 10M "big"). */
    size_t buffer_addrs = 1'000'000;
    /** Byte-level codec spec (see comp::CodecSpec). */
    std::string codec = "bwc";
    /** Codec block size; a `block=` spec parameter overrides this. */
    size_t codec_block = comp::kDefaultBlockSize;
};

/** Streaming lossless compressor into a byte sink. */
class LosslessWriter
{
  public:
    /**
     * @param params pipeline parameters
     * @param out    destination (e.g. a chunk file)
     * @param pool   borrowed codec workers, forwarded to the codec
     *               stage (must outlive the writer); null = inline
     * @throws util::Error on a malformed or unknown codec spec
     */
    LosslessWriter(const LosslessParams &params, util::ByteSink &out,
                   parallel::ThreadPool *pool = nullptr);

    /** Compress a batch of addresses — the primary entry point. */
    void write(const uint64_t *addrs, size_t n);

    /** Compress one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /** Flush everything and write the CRC trailer. Runs once: later
     *  calls, also after a failed one, write nothing. */
    void finish();

    /** @return addresses coded. */
    uint64_t count() const { return transform_->count(); }

  private:
    util::ByteSink &out_;
    std::shared_ptr<const comp::Codec> codec_;
    std::unique_ptr<comp::StreamCompressor> codec_stage_;
    std::unique_ptr<TransformEncoder> transform_;
    bool finished_ = false;
};

/** Streaming lossless decompressor from a byte source. */
class LosslessReader
{
  public:
    /**
     * @param params parameters used to write the stream (the buffer
     *               size bounds every transform-buffer header)
     * @param in     source (e.g. a chunk file)
     * @throws util::Error on a malformed or unknown codec spec
     */
    LosslessReader(const LosslessParams &params, util::ByteSource &in);

    /**
     * Decompress up to @p n addresses — the primary entry point.
     * At end of stream the stored CRC trailer is verified once.
     * @return addresses produced; 0 means end of stream
     * @throws util::Error on corrupt data or a CRC mismatch
     */
    size_t read(uint64_t *out, size_t n);

    /**
     * Decompress the next address.
     * @return false at end of stream
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

  private:
    void verifyTrailer();

    util::ByteSource &in_;
    std::shared_ptr<const comp::Codec> codec_;
    std::unique_ptr<comp::StreamDecompressor> codec_stage_;
    std::unique_ptr<TransformDecoder> transform_;
    bool verified_ = false;
};

} // namespace atc::core

#endif // ATC_ATC_LOSSLESS_HPP_

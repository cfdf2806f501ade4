/**
 * @file
 * The writer of lossless address streams (paper §4): transform
 * (bytesort, unshuffle, or none) followed by a byte-level codec.
 *
 * This is both ATC's lossless mode ('c' in the original tool) and the
 * per-chunk compressor of the lossy mode. The codec is addressed by a
 * registry spec (e.g. "bwc", "lzh", "bwc:block=900k") and constructed
 * through comp::CodecRegistry, so back ends stay pluggable.
 *
 * Streams use the one stream framing of compress/stream.hpp: the codec
 * stage (comp::StreamCompressor) ends each one with its frame index,
 * which holds a CRC-32 of each frame's raw (transformed, pre-codec)
 * bytes; this writer adds nothing after it. Every chunk stream,
 * lossless or lossy, is read by the cursor's frame engine over the
 * layout AtcIndex scans at open (see atc/index.hpp), and every frame
 * it decodes is checked against its CRC-32, so corruption is loud on
 * every read path, even under a codec without a checksum of its own
 * ("store"); a stream cut before its index is refused at open.
 *
 * The writer hands an optional borrowed pool to both stages: the
 * transform (TransformEncoder) forward-transforms batches of buffers on
 * it, and the codec stage (comp::StreamCompressor) encodes blocks on
 * it. The caller feeds both in order and runs queued pool tasks while
 * it waits for either, so the bytes do not depend on the pool.
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
    /** Codec block size; a `block=` spec parameter overrides this. At
     *  most the codec's maxBlockSize() (bwc: 2^24 - 1). */
    size_t codec_block = comp::kDefaultBlockSize;
};

/** Streaming lossless compressor into a byte sink. */
class LosslessWriter
{
  public:
    /**
     * @param params pipeline parameters
     * @param out    destination (e.g. a chunk file)
     * @param pool   borrowed workers, forwarded to the transform and
     *               codec stages (must outlive the writer); null =
     *               inline
     * @throws util::Error on a malformed or unknown codec spec
     */
    LosslessWriter(const LosslessParams &params, util::ByteSink &out,
                   parallel::ThreadPool *pool = nullptr);

    /** Compress a batch of addresses — the primary entry point. */
    void write(const uint64_t *addrs, size_t n);

    /** Compress one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /** Flush everything and end the stream. Runs once: later calls,
     *  also after a failed one, write nothing. */
    void finish();

    /** @return addresses coded. */
    uint64_t count() const { return transform_->count(); }

  private:
    std::shared_ptr<const comp::Codec> codec_;
    std::unique_ptr<comp::StreamCompressor> codec_stage_;
    std::unique_ptr<TransformEncoder> transform_;
    bool finished_ = false;
};

} // namespace atc::core

#endif // ATC_ATC_LOSSLESS_HPP_

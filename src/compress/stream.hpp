/**
 * @file
 * Streaming framing on top of block codecs.
 *
 * Every compressed stream — each chunk, the container INFO payload and
 * TCgen's two streams — has one layout:
 *
 *   frame*  varint(0)  index  crc32
 *
 * Each frame is `varint(n + 1)` `varint(c)` followed by exactly c codec
 * bytes of an n-byte block, so a scanner can walk frame boundaries
 * without decoding, and workers can decode frames independently. The
 * 0 varint ends the frames. The index (a 1 byte, then the frame count
 * and one `(raw, compressed)` varint pair per frame) is validated
 * against the frames the scan saw, and a little-endian CRC-32 of the
 * raw stream closes it. StreamCompressor writes all of it.
 *
 * A stream is read only through its scanned layout:
 * scanSeekableStream() once, then fetchIndexedFramePayload() and
 * decodeSeekableFrame() per frame. decompressAll() does exactly that
 * for a whole in-memory stream and checks the CRC-32; the cursor's
 * frame engine does it for chunks (see atc/index.hpp).
 */

#ifndef ATC_COMPRESS_STREAM_HPP_
#define ATC_COMPRESS_STREAM_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "compress/codec.hpp"
#include "util/bytestream.hpp"
#include "util/crc32.hpp"

namespace atc::parallel {
class ThreadPool;
} // namespace atc::parallel

namespace atc::comp {

// kDefaultBlockSize lives in codec.hpp, next to the spec machinery.

/** One frame's sizes, as recorded in a stream's index. */
struct FrameIndexEntry
{
    uint64_t raw_size = 0;  ///< decompressed block length
    uint64_t comp_size = 0; ///< codec bytes in the stream
};

/** Outcome of reading one frame header. */
enum class FrameScan
{
    Frame,      ///< header parsed; payload follows
    Terminator, ///< 0 varint seen; index comes next
    EndOfData,  ///< clean end of the source before any header byte
};

/**
 * Read the next frame header from @p src.
 * @param entry receives the frame sizes when the result is Frame
 * @throws util::Error on corrupt or truncated headers
 */
FrameScan readSeekableFrameHeader(util::ByteSource &src,
                                  FrameIndexEntry &entry);

/**
 * Decode one frame payload, enforcing that the codec consumes
 * exactly @p comp_size bytes and produces exactly @p raw_size bytes.
 * The single validation point for frames.
 * @throws util::Error on any disagreement with the declared sizes
 */
void decodeSeekableFrame(const Codec &codec, const uint8_t *comp,
                         size_t comp_size, size_t raw_size,
                         std::vector<uint8_t> &out);

/**
 * The complete layout of one stream, built by scanning its
 * frame headers without decoding any payload. This is what random
 * access keys off: raw_starts supports a binary search from a
 * decompressed byte offset to the frame containing it, comp_starts
 * gives the in-stream byte position to skip() to.
 */
struct StreamLayout
{
    /** Per-frame sizes, identical to the end-of-stream index. */
    std::vector<FrameIndexEntry> frames;
    /** Cumulative decompressed offsets; frames.size() + 1 entries,
     *  raw_starts[f] = first decompressed byte served by frame f. */
    std::vector<uint64_t> raw_starts;
    /** In-stream byte offset of each frame's *header*;
     *  frames.size() + 1 entries (last = offset of the terminator). */
    std::vector<uint64_t> comp_starts;
    /** True when the terminator, frame index and CRC-32 trailer were
     *  present (a clean end-of-data before them leaves this false — a
     *  truncated but tolerated stream; readers report the shortfall
     *  downstream). */
    bool indexed = false;
    /** CRC-32 trailer of the raw stream, valid when @ref indexed. */
    uint32_t crc = 0;

    /** @return total decompressed bytes across all frames. */
    uint64_t rawTotal() const { return raw_starts.back(); }

    /**
     * @return the frame whose decompressed extent contains @p raw_off.
     * @p raw_off must be < rawTotal().
     */
    size_t frameContaining(uint64_t raw_off) const;
};

/**
 * Scan a stream's frame headers from @p src (positioned at
 * the first frame), skipping every payload, and validate the stored
 * end-of-stream index against the headers actually seen, capturing
 * the CRC-32 trailer that follows it.
 * @throws util::Error on corrupt headers, a truncated payload, index
 *         or trailer, or any header/index disagreement
 */
StreamLayout scanSeekableStream(util::ByteSource &src);

/**
 * One frame's compressed payload, zero-copy when the source can serve
 * it. `data` either borrows the source's backing storage (mmap or
 * memory — `owned` stays empty, `keepalive` pins a mapping) or points
 * into `owned` after a copy through read(). Movable: moving relocates
 * the vector header, not its heap block, so `data` stays valid —
 * pooled decode tasks capture a FramePayload by value.
 */
struct FramePayload
{
    const uint8_t *data = nullptr;
    size_t size = 0;
    std::vector<uint8_t> owned;
    std::shared_ptr<const void> keepalive;
};

/**
 * Read frame @p f's compressed payload from @p src — which must be
 * positioned at that frame's header (layout.comp_starts[f]) and is
 * left just past the frame — re-validating the header against the
 * scanned @p layout, so a stream that changed since the scan is
 * rejected. Zero-copy when @p src supports view(): the payload span is
 * borrowed in place (falling back to an owned read), so mapped
 * containers decode straight off the page cache. The one frame fetch
 * of the cursor's read engine.
 * @throws util::Error on truncation or any header/layout disagreement
 */
FramePayload fetchIndexedFramePayload(util::ByteSource &src,
                                      const StreamLayout &layout,
                                      size_t f);

/**
 * Accumulates bytes and emits codec frames into a sink: the one place
 * a stream is sliced into blocks, its frames serialized, and its
 * terminator, frame index and raw CRC-32 trailer written. Each block is
 * encoded into a self-contained frame by a task launched on the
 * optional pool (inline without one); the encoded frames wait in a
 * window of parallel::windowDepth(pool) tasks and reach the sink in
 * block order, so the bytes are the same for every pool size. A
 * caller waiting for the oldest frame runs queued pool tasks meanwhile
 * (parallel::await()).
 */
class StreamCompressor : public util::ByteSink
{
  public:
    /**
     * @param codec      block codec (must outlive the compressor)
     * @param sink       destination (must outlive the compressor)
     * @param block_size bytes per block; larger blocks compress better
     *                   (at most codec.maxBlockSize(), or util::Error)
     * @param pool       borrowed encode workers (must outlive the
     *                   compressor); null encodes on the caller
     */
    StreamCompressor(const Codec &codec, util::ByteSink &sink,
                     size_t block_size = kDefaultBlockSize,
                     parallel::ThreadPool *pool = nullptr);

    /** Waits out pooled encodes still in flight (they borrow the
     *  codec); their frames are dropped. */
    ~StreamCompressor() override;

    /** Buffer input, emitting a frame whenever a block fills. */
    void write(const uint8_t *data, size_t n) override;

    /** Emit the final partial block, the terminator, the index and
     *  the CRC-32 trailer; runs once, later calls do nothing. */
    void finish();

    /** @return raw bytes consumed so far. */
    uint64_t rawBytes() const { return raw_bytes_; }

  private:
    struct EncodedFrame
    {
        std::vector<uint8_t> bytes;
        FrameIndexEntry entry;
    };

    void emitBlock();
    void drain(size_t keep);

    const Codec &codec_;
    util::ByteSink &sink_;
    size_t block_size_;
    parallel::ThreadPool *pool_;
    std::vector<uint8_t> buffer_;
    std::deque<std::future<EncodedFrame>> pending_;
    std::vector<FrameIndexEntry> index_;
    uint64_t raw_bytes_ = 0;
    util::Crc32 crc_;
    bool finished_ = false;
};

/** One-shot convenience: compress a whole buffer into a vector. */
std::vector<uint8_t> compressAll(const Codec &codec,
                                 const uint8_t *data, size_t n,
                                 size_t block_size = kDefaultBlockSize);

/**
 * Decompress a whole in-memory stream: scan it, decode every frame
 * through the scanned layout and check the CRC-32 trailer.
 * @throws util::Error when the terminator, frame index or trailer is
 *         missing, bytes follow the trailer, a frame fails to decode or
 *         the CRC-32 disagrees
 */
std::vector<uint8_t> decompressAll(const Codec &codec,
                                   const uint8_t *data, size_t n);

} // namespace atc::comp

#endif // ATC_COMPRESS_STREAM_HPP_

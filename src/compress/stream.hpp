/**
 * @file
 * Streaming framing on top of block codecs.
 *
 * Every compressed stream — each chunk, the container INFO payload and
 * TCgen's two streams — has one layout:
 *
 *   frame*  varint(0)  index
 *
 * Each frame is `varint(n + 1)` `varint(c)` followed by exactly c codec
 * bytes of an n-byte block, so a scanner can walk frame boundaries
 * without decoding, and workers can decode frames independently. The
 * 0 varint ends the frames. The index (a 1 byte, then the frame count
 * and one `varint(raw)` `varint(compressed)` `u32 crc` entry per frame,
 * the CRC-32 of the frame's raw bytes in little-endian order) is
 * validated against the frames the scan saw. StreamCompressor writes
 * all of it.
 *
 * Integrity lives here and nowhere else: decodeSeekableFrame() checks
 * each decoded frame against the CRC-32 its index entry stores, so
 * every byte any reader returns — from a full pass, a seek, a range or
 * a served request — was checked on its way out of the codec. The
 * CRCs sit in the index by frame position, so frames swapped in the
 * file fail too. The index itself needs no checksum: each entry's
 * sizes are compared with its frame header at every scan, and a
 * flipped CRC fails its own frame's decode.
 *
 * A stream is read only through its scanned layout:
 * scanSeekableStream() once, then fetchIndexedFramePayload() and
 * decodeSeekableFrame() per frame. decompressAll() does exactly that
 * for a whole in-memory stream; the cursor's frame engine does it for
 * chunks (see atc/index.hpp).
 */

#ifndef ATC_COMPRESS_STREAM_HPP_
#define ATC_COMPRESS_STREAM_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "compress/codec.hpp"
#include "parallel/thread_pool.hpp"
#include "util/bytestream.hpp"

namespace atc::comp {

// kDefaultBlockSize lives in codec.hpp, next to the spec machinery.

/** One frame as recorded in a stream's index. */
struct FrameIndexEntry
{
    uint64_t raw_size = 0;  ///< decompressed block length
    uint64_t comp_size = 0; ///< codec bytes in the stream
    uint32_t crc = 0;       ///< CRC-32 of the decompressed block
};

/**
 * Read the next frame header from @p src.
 * @param entry receives the frame sizes (not its CRC, which only the
 *        index holds) when a frame follows
 * @return false at the terminator, true for a frame
 * @throws util::Error on corrupt or truncated headers
 */
bool readSeekableFrameHeader(util::ByteSource &src, FrameIndexEntry &entry);

/**
 * Decode one frame payload of @p frame.comp_size bytes, enforcing that
 * the codec consumes all of them, produces exactly frame.raw_size
 * bytes, and that those bytes match frame.crc. The single validation
 * point for frames: nothing decoded reaches a cache or a reader before
 * it passes.
 * @throws util::Error on any disagreement with the index entry
 */
void decodeSeekableFrame(const Codec &codec, const uint8_t *comp,
                         const FrameIndexEntry &frame,
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
    /** Per-frame entries, identical to the end-of-stream index. */
    std::vector<FrameIndexEntry> frames;
    /** Cumulative decompressed offsets; frames.size() + 1 entries,
     *  raw_starts[f] = first decompressed byte served by frame f. */
    std::vector<uint64_t> raw_starts;
    /** In-stream byte offset of each frame's *header*;
     *  frames.size() + 1 entries (last = offset of the terminator). */
    std::vector<uint64_t> comp_starts;
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
 * end-of-stream index against the headers actually seen, taking each
 * frame's CRC-32 from it.
 * @throws util::Error on corrupt headers, a truncated payload, a
 *         missing or truncated index, or any header/index disagreement
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
 * terminator and frame index written. Each block is encoded (and its
 * CRC-32 taken) into a self-contained frame by a parallel::Task on the
 * optional pool (inline without one); the encoded frames wait in a
 * window of parallel::windowDepth(pool) tasks and reach the sink in
 * block order, so the bytes are the same for every pool size. An
 * abandoned compressor waits out its pooled encodes (they borrow the
 * codec) and drops their frames.
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

    /** Buffer input, emitting a frame whenever a block fills. */
    void write(const uint8_t *data, size_t n) override;

    /** Emit the final partial block, the terminator and the index;
     *  runs once, later calls do nothing. */
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
    std::deque<parallel::Task<EncodedFrame>> pending_;
    std::vector<FrameIndexEntry> index_;
    uint64_t raw_bytes_ = 0;
    bool finished_ = false;
};

/** One-shot convenience: compress a whole buffer into a vector. */
std::vector<uint8_t> compressAll(const Codec &codec,
                                 const uint8_t *data, size_t n,
                                 size_t block_size = kDefaultBlockSize);

/**
 * Decompress a whole in-memory stream: scan it and decode every frame
 * through the scanned layout.
 * @throws util::Error when the terminator or frame index is missing,
 *         bytes follow the index, or a frame fails to decode or to
 *         match its CRC-32
 */
std::vector<uint8_t> decompressAll(const Codec &codec,
                                   const uint8_t *data, size_t n);

} // namespace atc::comp

#endif // ATC_COMPRESS_STREAM_HPP_

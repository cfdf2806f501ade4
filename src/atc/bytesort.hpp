/**
 * @file
 * The bytesort reversible transformation (paper §4) and the plain
 * byte-unshuffling baseline.
 *
 * For a buffer of N 64-bit addresses, eight blocks of N bytes are
 * emitted, most-significant plane first. Unshuffling alone emits each
 * plane in original sequence order. Bytesort additionally stable-sorts
 * the addresses by the plane just emitted before extracting the next
 * one, progressively grouping addresses by memory region — the
 * regularity a byte-level compressor then exploits. Both transforms
 * are exactly reversible and linear in time and space.
 *
 * Kernels: each direction is seven passes of one stable counting sort
 * by a plane. A pass moves every address's remaining bytes between
 * whole 64-bit words and a packed array of K bytes per address that
 * fills the planes not yet emitted (forward) or already consumed
 * (inverse), so no third array is needed. Both directions share one
 * kernel set (bytesort.cpp):
 * - a histogram with four accumulators, which also counts the plane's
 *   runs of equal keys;
 * - a run copy: a plane of fewer than n/4 runs is moved run by run,
 *   reading a key's next rank once per run and copying the run as one
 *   contiguous block; any other plane moves one address at a time;
 * - word access: packed addresses move as masked, unaligned 8-byte
 *   words; only where a word would reach past the end of the 8n plane
 *   bytes (the last few ranks) do they take exact-width access, so
 *   callers need no slack bytes.
 * A word store also writes spare bytes beyond its address, and two
 * rules keep them harmless. The inverse expands packed addresses in
 * place from the back and stores the word that ends at an address's
 * last byte: its spare bytes belong to addresses written after it,
 * never to a plane byte still to be read. The forward scatter stores
 * whole words only while they stay inside the key's block of ranks,
 * whose later ranks it fills in order. The kernel is picked per plane
 * from its run count, never by an option, and the output is that of
 * the byte-at-a-time counting sort, byte for byte.
 *
 * Streaming framing: the trace is cut into buffers of at most B
 * addresses; each buffer is emitted as varint(n) followed by its 8
 * planes; a 0 varint (or end of stream) terminates. The decoder checks
 * every n against the buffer size B it is given (INFO records it) and
 * its 8n plane bytes against what its source still holds (a frame
 * source knows this from the layout scanned at open), so a crafted
 * length fails as corruption instead of sizing an allocation.
 *
 * Encoding with a thread pool: the encoder cuts its input into batches
 * of whole buffers (at least 2^17 addresses each) and forward-transforms
 * each batch as one parallel::Task, which owns the batch and its plane
 * array, while the caller fills the next batch — one batch in flight.
 * The caller writes every buffer's header and planes to the sink in
 * order, so the bytes do not depend on the pool. A batch's arrays are
 * recycled, so a stream allocates them once. Without a pool each batch
 * is transformed on the caller as soon as it fills. Batches
 * of one buffer would queue every transform behind the codec frames of
 * the buffer before it; much larger ones would hold more addresses in
 * flight than the codec window needs. The caller writes a batch only
 * after launching the one after it, so that transform runs while the
 * caller feeds the codec; writing first and launching after cost about
 * a third of the archive write rate.
 *
 * Decoding with a thread pool: the decoder's caller still parses every
 * buffer header and reads every plane from its source, in order, but
 * the inverse transform of each buffer runs as a parallel::Task while
 * the caller reads the buffers after it — one buffer ahead of the one
 * being served per three decoding threads (the pool's workers plus the
 * caller). A failed buffer fails every later read with its error. The
 * ring's plane and address arrays are recycled from buffer to buffer,
 * so a pass allocates them once.
 * Without a pool every buffer is read and inverse-transformed on the
 * caller's thread when the reader reaches it.
 */

#ifndef ATC_ATC_BYTESORT_HPP_
#define ATC_ATC_BYTESORT_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/bytestream.hpp"

namespace atc::core {

/** Reversible per-buffer transform applied before byte compression. */
enum class Transform : uint8_t
{
    /** Raw little-endian bytes, no rearrangement. */
    None = 0,
    /** Byte-unshuffling: planes in sequence order (§4.1 baseline). */
    Unshuffle = 1,
    /** Full bytesort: planes with progressive stable sorting (§4.1). */
    Bytesort = 2,
    /**
     * Mache-style differencing (Samples [23], discussed in §3):
     * successive-address deltas, byte-unshuffled. Exploits spatial
     * locality; provided as a related-work baseline for ablations.
     */
    Delta = 3,
};

/** Largest transform buffer B a writer may use and a reader accepts
 *  (the paper's "big" buffer is 10M addresses). */
constexpr uint64_t kMaxBufferAddrs = uint64_t(1) << 30;

/**
 * Buffer-level forward bytesort: the 8*n plane bytes, MSB plane first,
 * into @p planes, using the n addresses at @p addrs as its working
 * space (their contents are destroyed), with no allocation.
 */
void bytesortForward(uint64_t *addrs, size_t n, uint8_t *planes);

/**
 * Buffer-level inverse bytesort: writes the n addresses to @p out,
 * using the 8*n bytes at @p planes as its working space (their
 * contents are destroyed), with no allocation.
 */
void bytesortInverseInPlace(uint8_t *planes, size_t n, uint64_t *out);

/** Buffer-level byte-unshuffling (no sorting): 8*n bytes into
 *  @p planes, MSB plane first. */
void unshuffleForward(const uint64_t *addrs, size_t n, uint8_t *planes);

/** Inverse of unshuffleForward: the n addresses into @p out. */
void unshuffleInverse(const uint8_t *bytes, size_t n, uint64_t *out);

/**
 * Streaming encoder: buffers addresses and emits framed, transformed
 * buffers into a byte sink (typically a StreamCompressor), on an
 * optional pool (see the file comment).
 */
class TransformEncoder
{
  public:
    /**
     * @param transform    transform applied to each buffer
     * @param buffer_addrs buffer capacity B in addresses (paper: 1M/10M),
     *                     at most kMaxBufferAddrs
     * @param out          destination byte sink
     * @param pool         when set, forward transforms run on it, one
     *                     batch ahead of the sink; borrowed, must
     *                     outlive the encoder
     * @throws util::Error on a buffer size outside [1, kMaxBufferAddrs]
     */
    TransformEncoder(Transform transform, size_t buffer_addrs,
                     util::ByteSink &out,
                     parallel::ThreadPool *pool = nullptr);

    TransformEncoder(const TransformEncoder &) = delete;
    TransformEncoder &operator=(const TransformEncoder &) = delete;

    /** Append a batch of addresses — the primary (hot-path) entry. */
    void write(const uint64_t *addrs, size_t n);

    /** Append one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /** Emit every buffer still held, the final partial one included,
     *  and the terminator. */
    void finish();

    /** @return addresses coded so far. */
    uint64_t count() const { return count_; }

  private:
    /** Whole buffers transformed by one task: the addresses (working
     *  space once launched), and the planes the caller writes out. */
    struct Batch
    {
        std::vector<uint64_t> addrs;
        std::vector<uint8_t> planes;
    };

    void launch();
    void drain(size_t keep);

    Transform transform_;
    size_t capacity_;
    size_t batch_addrs_; ///< whole buffers per batch
    util::ByteSink &out_;
    parallel::ThreadPool *pool_;
    /** The batch being filled; launched when it holds batch_addrs_. */
    Batch filling_;
    /** Launched batches, in order, not yet written to out_; an
     *  abandoned encoder waits them out and drops them. */
    std::deque<parallel::Task<Batch>> pending_;
    /** The last batch written, whose arrays the next batch reuses. */
    Batch spare_;
    uint64_t count_ = 0;
    bool finished_ = false;
};

/** Streaming decoder for TransformEncoder output. */
class TransformDecoder
{
  public:
    /**
     * @param transform  transform used when encoding
     * @param in         source byte stream
     * @param max_buffer buffer size B used when encoding; a buffer
     *                   header claiming more is rejected as corrupt
     * @param pool       when set, inverse transforms run on it, ahead
     *                   of the reader (see the file comment); borrowed,
     *                   must outlive the decoder
     */
    TransformDecoder(Transform transform, util::ByteSource &in,
                     uint64_t max_buffer = kMaxBufferAddrs,
                     parallel::ThreadPool *pool = nullptr);

    TransformDecoder(const TransformDecoder &) = delete;
    TransformDecoder &operator=(const TransformDecoder &) = delete;

    /**
     * Produce up to @p n addresses — the primary (hot-path) entry.
     * A failed buffer fails this and every later call with its error.
     * @return addresses produced; 0 means end of trace
     */
    size_t read(uint64_t *out, size_t n);

    /**
     * Produce the next address.
     * @param out receives the address
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

  private:
    /** One transform buffer of the ring: its planes as read, and its
     *  addresses once inverted — the task that writes them, or the
     *  error that stopped the buffer. */
    struct Slot
    {
        std::vector<uint8_t> planes;
        std::vector<uint64_t> addrs;
        parallel::Task<void> inverted; ///< declared last: joins first
    };

    bool refill();
    void topUp();
    bool readBuffer(Slot &slot);

    Transform transform_;
    util::ByteSource &in_;
    uint64_t max_buffer_;
    parallel::ThreadPool *pool_;
    size_t depth_;
    /** Front: the buffer being served once current_; then the buffers
     *  read ahead, in order. */
    std::deque<Slot> ring_;
    bool current_ = false;
    size_t pos_ = 0;
    bool done_ = false; ///< terminator, end of input, or an error read
    /** The last buffer served, whose arrays the next buffer read reuses. */
    Slot spare_;
};

} // namespace atc::core

#endif // ATC_ATC_BYTESORT_HPP_

/**
 * @file
 * Parallel chunked compression engine.
 *
 * ParallelAtcWriter is a drop-in TraceSink producing the exact
 * container format of the serial AtcWriter — for any thread count the
 * emitted bytes (INFO preamble and every chunk file) are identical, so
 * containers stay interchangeable. The caller thread runs the cheap,
 * order-dependent work (the bytesort transform in lossless mode;
 * interval signatures and the imitation decision in lossy mode) and
 * dispatches the dominant cost — per-block codec compression
 * (BWT/suffix array) or whole-chunk compression — to a fixed thread
 * pool. Results come back as futures kept in submission order and are
 * reassembled in order into the container, with a bounded in-flight
 * window of 2 * threads blocks for backpressure. Abandoning the writer
 * mid-stream never deadlocks.
 *
 * ParallelAtcReader is only a name for the pooled core::AtcReader: the
 * one read engine (AtcCursor, see atc/index.hpp) decodes block-parallel
 * through its readahead window whenever it has a pool.
 */

#ifndef ATC_PARALLEL_PARALLEL_ATC_HPP_
#define ATC_PARALLEL_PARALLEL_ATC_HPP_

#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atc/atc.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/status.hpp"

namespace atc::parallel {

/** Knobs of the parallel drivers. */
struct ParallelOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    size_t threads = 0;
    /** Budget of the reader's shared decoded-block cache (forwarded
     *  to core::IndexOptions::cache_bytes; 0 disables it). */
    size_t cache_bytes = core::kDefaultDecodedCacheBytes;
};

/** Compressing side; byte-identical to AtcWriter for any thread count. */
class ParallelAtcWriter : public trace::TraceSink
{
  public:
    /**
     * Write into an existing store. The store is only touched from the
     * caller thread (ordered reassembly), so any ChunkStore works.
     * @throws util::Error on a malformed or unknown codec spec
     */
    ParallelAtcWriter(core::ChunkStore &store,
                      const core::AtcOptions &options,
                      const ParallelOptions &popt = {});

    /** Write into a directory container (created if needed). */
    ParallelAtcWriter(const std::string &dir,
                      const core::AtcOptions &options,
                      const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<ParallelAtcWriter>> open(
        core::ChunkStore &store, const core::AtcOptions &options,
        const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper (directory layout). */
    static util::StatusOr<std::unique_ptr<ParallelAtcWriter>> open(
        const std::string &dir, const core::AtcOptions &options,
        const ParallelOptions &popt = {});

    /** Abandons cleanly (no deadlock) when close() was never called. */
    ~ParallelAtcWriter() override;

    ParallelAtcWriter(const ParallelAtcWriter &) = delete;
    ParallelAtcWriter &operator=(const ParallelAtcWriter &) = delete;

    /** Compress a batch of values — the primary entry point. */
    void write(const uint64_t *vals, size_t n) override;

    /** Compress one 64-bit value. */
    void code(uint64_t value) { write(&value, 1); }

    /** Drain the pool, reassemble, and write INFO. */
    void close() override;

    /** close(), reporting failures as a Status instead of throwing. */
    util::Status tryClose();

    /** @return values coded so far. */
    uint64_t count() const { return count_; }

    /** @return worker threads in the pool. */
    size_t threads() const { return pool_.size(); }

    /** @return lossy counters; valid after close() in lossy mode. */
    const core::LossyStats &lossyStats() const;

  private:
    friend class LosslessBlockSink;

    void init();
    void onTransformedBytes(const uint8_t *data, size_t n);
    void dispatchBlock();
    void dispatchChunk(uint32_t id, std::vector<uint64_t> payload);
    void drainBlocks(size_t keep);
    void drainChunks(size_t keep);
    void writeLossy(const uint64_t *vals, size_t n);
    void dispatchInterval();
    void drainSignatures(size_t keep);

    std::unique_ptr<core::ChunkStore> owned_store_;
    core::ChunkStore *store_;
    core::AtcOptions options_;
    comp::ConfiguredCodec codec_;
    size_t lookahead_;
    ThreadPool pool_;
    uint64_t count_ = 0;
    bool closed_ = false;

    // Lossless mode: transform on the caller thread, codec blocks in
    // the pool, frames reassembled in submission order. Each pooled
    // task returns the encoded frame plus its index entry so the
    // writer can emit the frame index at close.
    using EncodedFrame =
        std::pair<std::vector<uint8_t>, comp::FrameIndexEntry>;
    std::unique_ptr<util::ByteSink> chunk_sink_;
    std::unique_ptr<util::ByteSink> block_sink_; // feeds onTransformedBytes
    std::unique_ptr<core::TransformEncoder> transform_;
    size_t block_size_ = 0;
    std::vector<uint8_t> block_buf_;
    util::Crc32 raw_crc_;
    std::deque<std::future<EncodedFrame>> pending_blocks_;
    std::vector<comp::FrameIndexEntry> frame_index_;

    // Lossy mode: the caller thread slices input into interval-sized
    // payloads and pools the signature computation (pure, per-payload);
    // signatures drain in submission order into the encoder's
    // order-dependent decision stage (writeInterval), so records and
    // chunks come out byte-identical to the serial path. Chunk
    // compression pools through the ChunkFn seam as before. Tasks own
    // their payload via shared_ptr, so an abandoned writer (queue
    // outliving the deque) never leaves a worker on freed memory.
    struct PendingInterval
    {
        std::shared_ptr<std::vector<uint64_t>> payload;
        std::future<core::IntervalSignature> sig;
    };
    std::unique_ptr<core::LossyEncoder> lossy_;
    std::vector<uint64_t> interval_buf_;
    std::deque<PendingInterval> pending_sigs_;
    std::deque<std::pair<uint32_t, std::future<std::vector<uint8_t>>>>
        pending_chunks_;
};

/** core::AtcReader decoding on popt.threads workers (0 = hardware
 *  concurrency); popt.cache_bytes sizes the shared block cache. */
class ParallelAtcReader : public core::AtcReader
{
  public:
    explicit ParallelAtcReader(core::ChunkStore &store,
                               const ParallelOptions &popt = {});

    /** Read from a directory container (suffix auto-detected). */
    explicit ParallelAtcReader(const std::string &dir,
                               const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<ParallelAtcReader>> open(
        core::ChunkStore &store, const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper (directory, auto-detect). */
    static util::StatusOr<std::unique_ptr<ParallelAtcReader>> open(
        const std::string &dir, const ParallelOptions &popt = {});
};

} // namespace atc::parallel

#endif // ATC_PARALLEL_PARALLEL_ATC_HPP_

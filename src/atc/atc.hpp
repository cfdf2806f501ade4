/**
 * @file
 * Top-level ATC compressor API (paper §6).
 *
 * Mirrors the original C interface: atc_open('c'|'k') + atc_code +
 * atc_close becomes AtcWriter (Mode::Lossless | Mode::Lossy); atc_open
 * ('d') + atc_decode becomes AtcReader, which auto-detects the mode
 * from the INFO stream. Traces live in a ChunkStore — typically a
 * directory of `<n>.<suffix>` chunk files plus `INFO.<suffix>`,
 * exactly like the original tool's output (Figure 8).
 *
 * The API is batch-first: write(vals, n) / read(out, n) are the hot
 * paths; code()/decode() are thin single-value wrappers kept for parity
 * with atc_code/atc_decode. Both classes speak the composable trace
 * pipeline interfaces (trace::TraceSink / trace::TraceSource), so a
 * compressor slots directly behind a generator or cache-filter stage.
 *
 * Both take a `threads` count (0 = everything on the caller's thread)
 * and then own a pool of that many workers: the writer encodes codec
 * blocks (lossless) or interval signatures and chunks (lossy) on it,
 * the reader decodes on it. The container bytes and the decoded trace
 * do not depend on the count.
 *
 * Failures while opening or reading a container (missing files,
 * corrupt INFO, truncated chunks) surface as util::Status/StatusOr via
 * the open()/tryRead()/tryClose() entry points; the constructors and
 * hot-path calls throw util::Error instead. ATC_ASSERT stays reserved
 * for internal invariants.
 *
 * INFO layout: an uncompressed preamble (magic, version, mode, codec
 * spec) followed by a codec-compressed payload holding the pipeline
 * parameters, the address count and — in lossy mode — the interval
 * trace (chunk/imitate records with byte translations).
 */

#ifndef ATC_ATC_ATC_HPP_
#define ATC_ATC_ATC_HPP_

#include <exception>
#include <memory>
#include <string>

#include "atc/container.hpp"
#include "atc/index.hpp"
#include "atc/info.hpp"
#include "atc/lossless.hpp"
#include "atc/lossy.hpp"
#include "compress/codec.hpp"
#include "trace/pipeline.hpp"
#include "util/status.hpp"

namespace atc::core {

// Mode (the 'c' vs 'k' distinction) lives in atc/info.hpp with the rest
// of the container wire format.

/** Options accepted by AtcWriter. */
struct AtcOptions
{
    Mode mode = Mode::Lossy;
    /** Transform + codec pipeline: the whole stream in lossless mode,
     *  each chunk in lossy mode. The codec field is a registry spec,
     *  e.g. "bwc", "lzh", "bwc:block=900k". */
    LosslessParams pipeline;
    /** Lossy-mode parameters (chunk_params is overridden by pipeline). */
    LossyParams lossy;
};

/** Compressing side of the ATC container. */
class AtcWriter : public trace::TraceSink
{
  public:
    /**
     * Write into an existing store.
     * @param store destination; must outlive the writer. Only the
     *        caller's thread touches it, so any ChunkStore works.
     * @param options mode and parameters
     * @param threads compression workers; 0 compresses on the caller
     * @throws util::Error on a malformed or unknown codec spec
     */
    AtcWriter(ChunkStore &store, const AtcOptions &options,
              size_t threads = 0);

    /**
     * Write into a directory (created if needed), using the codec
     * *name* (never the full spec) as the file suffix — the original
     * tool's layout.
     * @throws util::Error on a bad codec spec or uncreatable directory
     */
    AtcWriter(const std::string &dir, const AtcOptions &options,
              size_t threads = 0);

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<AtcWriter>> open(
        ChunkStore &store, const AtcOptions &options, size_t threads = 0);

    /** Non-throwing constructor wrapper (directory layout). */
    static util::StatusOr<std::unique_ptr<AtcWriter>> open(
        const std::string &dir, const AtcOptions &options,
        size_t threads = 0);

    /** Abandons cleanly when close() was never called: work still on
     *  the pool runs out, and nothing more is written. */
    ~AtcWriter() override;

    AtcWriter(const AtcWriter &) = delete;
    AtcWriter &operator=(const AtcWriter &) = delete;

    /** Compress a batch of values — the primary entry point. */
    void write(const uint64_t *vals, size_t n) override;

    /** Compress one 64-bit value (atc_code). */
    void code(uint64_t value) { write(&value, 1); }

    /**
     * Finalize the container, writing INFO (atc_close). The finish
     * sequence runs once: after a success later calls do nothing, and
     * after a failure every later call fails with the same error and
     * writes nothing.
     */
    void close() override;

    /** close(), reporting I/O failures as a Status instead of throwing. */
    util::Status tryClose();

    /** @return values coded so far. */
    uint64_t count() const { return count_; }

    /** @return lossy counters; valid after close() in lossy mode. */
    const LossyStats &lossyStats() const;

  private:
    void init();

    std::unique_ptr<ChunkStore> owned_store_;
    ChunkStore *store_;
    AtcOptions options_;
    comp::ConfiguredCodec codec_;
    // Declared before the encoders, so it outlives them: an abandoned
    // writer's queued tasks still run against a live pool.
    std::shared_ptr<parallel::ThreadPool> pool_;
    uint64_t count_ = 0;
    bool closed_ = false;
    std::exception_ptr close_error_;

    // Lossless mode state.
    std::unique_ptr<util::ByteSink> chunk_sink_;
    std::unique_ptr<LosslessWriter> lossless_;

    // Lossy mode state.
    std::unique_ptr<LossyEncoder> lossy_;
};

/**
 * Decompressing side; mode is auto-detected from INFO.
 *
 * A thin driver over the read engine: opening a reader opens a shared
 * AtcIndex and reads through one AtcCursor positioned at record 0, so
 * sequential decode and random access share one code path. With
 * threads > 0 the reader owns a pool of that many workers, and its
 * cursor — and every cursor minted by cursor() — decodes full passes
 * and ranges through a readahead window on it, the reading thread
 * decoding alongside the workers while it waits (see index.hpp).
 * index() exposes the snapshot for sharing.
 */
class AtcReader : public trace::TraceSource
{
  public:
    /**
     * Read from an existing store.
     * @param store source; must outlive the reader AND anything still
     *        holding the reader's index() or cursors minted from it
     *        (directory-opened readers have no such caveat: their
     *        index owns the store)
     * @param cache_bytes budget of the index's shared decoded-block
     *        cache (decoded frames in lossless mode, decompressed
     *        chunks in lossy mode; 0 disables it) — see IndexOptions
     * @param threads decode workers; 0 decodes on the caller's thread
     * @throws util::Error on missing/corrupt INFO
     */
    explicit AtcReader(ChunkStore &store,
                       size_t cache_bytes = kDefaultDecodedCacheBytes,
                       size_t threads = 0);

    /**
     * Read from a directory container, auto-detecting the chunk-file
     * suffix from the `INFO.<suffix>` file present in the directory.
     * The underlying store is owned by the index, so index()/cursor()
     * results stay valid after the reader is gone.
     * @throws util::Error when no INFO file is found or INFO is corrupt
     */
    explicit AtcReader(const std::string &dir,
                       size_t cache_bytes = kDefaultDecodedCacheBytes,
                       size_t threads = 0);

    /**
     * Read from a directory container with an explicit suffix (only
     * needed when several containers share one directory).
     */
    AtcReader(const std::string &dir, const std::string &suffix,
              size_t cache_bytes = kDefaultDecodedCacheBytes,
              size_t threads = 0);

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<AtcReader>> open(
        ChunkStore &store,
        size_t cache_bytes = kDefaultDecodedCacheBytes,
        size_t threads = 0);

    /** Non-throwing constructor wrapper (directory, auto-detect). */
    static util::StatusOr<std::unique_ptr<AtcReader>> open(
        const std::string &dir,
        size_t cache_bytes = kDefaultDecodedCacheBytes,
        size_t threads = 0);

    ~AtcReader() override;

    AtcReader(const AtcReader &) = delete;
    AtcReader &operator=(const AtcReader &) = delete;

    /**
     * Decompress up to @p n values — the primary entry point.
     * @return values produced; 0 means end of trace
     * @throws util::Error on truncated/corrupt chunk data
     */
    size_t read(uint64_t *out, size_t n) override;

    /** read(), reporting corruption as a Status instead of throwing. */
    util::StatusOr<size_t> tryRead(uint64_t *out, size_t n);

    /**
     * Decompress the next value (atc_decode).
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

    /** @return the container's compression mode. */
    Mode mode() const { return index_->mode(); }

    /** @return the codec spec recorded in INFO. */
    const std::string &codecSpec() const
    {
        return index_->info().codec_spec;
    }

    /** @return total values in the trace, from INFO. */
    uint64_t count() const { return index_->size(); }

    /** @return the container format version recorded in INFO. */
    uint8_t containerVersion() const { return index_->version(); }

    /** @return the shared seek-metadata snapshot of this container. */
    const std::shared_ptr<const AtcIndex> &index() const
    {
        return index_;
    }

    /**
     * Mint an independent seekable cursor over the same container,
     * decoding on this reader's pool. Cursors share the (immutable)
     * index and the pool but hold private decode state, so they may
     * outlive the reader; see index.hpp for the thread-safety rules.
     */
    std::unique_ptr<AtcCursor> cursor() const;

  private:
    AtcReader(std::shared_ptr<const AtcIndex> index, size_t threads);

    std::shared_ptr<parallel::ThreadPool> pool_;
    std::shared_ptr<const AtcIndex> index_;
    std::unique_ptr<AtcCursor> cursor_;
};

} // namespace atc::core

#endif // ATC_ATC_ATC_HPP_

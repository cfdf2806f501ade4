/**
 * @file
 * The read engine over ATC containers: every decode — sequential,
 * seek and ranged, serial and pooled — runs through AtcCursor.
 *
 * AtcIndex is an immutable, open-once snapshot of everything needed to
 * locate a record without decoding the records before it: the parsed
 * INFO stream, every chunk's frame index (scanned from the seekable
 * frame headers without touching payloads, then validated against the
 * stored end-of-stream index), and — in lossy mode — the cumulative
 * record offsets of the interval trace. One AtcIndex may be shared by
 * any number of threads; it never mutates after open().
 *
 * AtcCursor is the trace::TraceCursor implementation minted from an
 * AtcIndex. Cursors are cheap: each holds only its own decode state,
 * so a consumer wanting several independent read positions opens
 * several cursors. seek() on a lossless container binary-searches the
 * frame index and decodes only from the containing frame onward; on
 * lossy containers it lands on the containing interval boundary (the
 * paper's lossy semantics make positions inside an imitated interval
 * approximations anyway — tell() reports where the cursor actually
 * landed).
 *
 * A cursor with a thread pool decodes through one bounded, ordered
 * readahead window wherever the blocks ahead are known to be read: a
 * pass from record 0 keeps 2 x pool-size blocks decoding ahead of the
 * one being read — the next frames of the lossless stream (the caller
 * reads their payloads zero-copy, the pool decodes them; one frame
 * more, as the reader sits mid-frame through each transform buffer),
 * or the chunks of the next intervals in lossy mode — and readRange()
 * decodes its covering blocks the same way, never past the range. A
 * lossless pass from record 0 also inverse-transforms on the pool: the
 * caller parses each transform buffer's header and reads its planes
 * (CRC included) in order, and the inverse transforms of the buffers
 * after the one being served run as pool tasks (TransformDecoder, see
 * bytesort.hpp). A caller that must wait for a block or a buffer runs
 * queued pool tasks meanwhile (ThreadPool::wait()), so it decodes
 * alongside the workers instead of idling. A pass started by a seek
 * may read only a few records, so it decodes on demand on the caller's
 * thread, as every pass of a cursor without a pool does.
 *
 * Cache policy: a pass that starts at record 0 is a full scan, which
 * verifies the lossless stream's CRC-32 trailer and reads the shared
 * decoded-block cache without adding to it (a scan must not churn the
 * seek working set; a serial lossy scan still caches chunks, which is
 * how imitated intervals reuse them). Passes started by a seek, and
 * every readRange(), both read and fill the cache.
 *
 * Thread-safety rules:
 *  - AtcIndex: immutable, share freely (its ChunkStore must stay
 *    readable and unmodified for the index's lifetime, and openChunk()
 *    must be callable concurrently — DirectoryStore and MemoryStore
 *    both qualify). The attached decoded-block cache (BlockCache) is
 *    internally synchronized mutable state and shared along with the
 *    index; see IndexOptions::cache_bytes.
 *  - AtcCursor: confined to one thread at a time; concurrent use of
 *    *different* cursors over one AtcIndex is supported and tested.
 *  - A cursor keeps its AtcIndex alive (shared ownership). A pool
 *    passed through CursorOptions is borrowed and must outlive the
 *    cursor; cursors minted by AtcReader::cursor() share the reader's
 *    pool instead, so they may outlive the reader. A pooled cursor must
 *    not be used from a task running on its own pool.
 */

#ifndef ATC_ATC_INDEX_HPP_
#define ATC_ATC_INDEX_HPP_

#include <memory>
#include <string>
#include <vector>

#include "atc/block_cache.hpp"
#include "atc/container.hpp"
#include "atc/info.hpp"
#include "atc/lossless.hpp"
#include "atc/lossy.hpp"
#include "compress/stream.hpp"
#include "trace/pipeline.hpp"
#include "util/status.hpp"

namespace atc::parallel {
class ThreadPool;
} // namespace atc::parallel

namespace atc::core {

class AtcCursor;

/** Knobs of a cursor minted by AtcIndex::cursor(). */
struct CursorOptions
{
    /** Borrowed pool; when set, full passes and readRange() decode
     *  through a readahead window on it, and the cursor's caller runs
     *  queued tasks of it while waiting (see the file comment), so it
     *  must hold only tasks that finish on their own. A submit to a
     *  full queue waits for a worker; AtcReader sizes its pool's queue
     *  to hold a whole pass's readahead. Must outlive the cursor. */
    parallel::ThreadPool *pool = nullptr;
};

/** Knobs of the snapshot built by AtcIndex::open(). */
struct IndexOptions
{
    /** Budget of the shared decoded-block cache, in bytes (0 disables
     *  it). Lossless indexes cache decoded codec frames keyed by
     *  (chunk, frame); lossy indexes cache decoded chunks keyed by
     *  chunk id. Every cursor minted from the index reads through the
     *  same cache, so repeated seeks into a cache-resident working set
     *  decode nothing. */
    size_t cache_bytes = kDefaultDecodedCacheBytes;
};

/** Immutable, shareable snapshot of a container's seek metadata. */
class AtcIndex : public std::enable_shared_from_this<AtcIndex>
{
  public:
    /**
     * Open over an existing store (borrowed; must outlive the index
     * and stay unmodified). Reads INFO, then scans and validates every
     * chunk's frame index — payloads are skipped, never decoded, so
     * open cost is I/O over headers only.
     */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        ChunkStore &store, const IndexOptions &iopt = {});

    /** Open a directory container, auto-detecting the suffix. */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        const std::string &dir, const IndexOptions &iopt = {});

    /** Open a directory container with an explicit suffix. */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        const std::string &dir, const std::string &suffix,
        const IndexOptions &iopt = {});

    /** Throwing variant of open() for internal callers. */
    static std::shared_ptr<const AtcIndex> openOrThrow(
        ChunkStore &store, const IndexOptions &iopt = {});

    /**
     * Throwing open() that takes ownership of @p store, making the
     * snapshot fully self-contained — the directory-opened readers use
     * this so their index() survives the reader itself.
     */
    static std::shared_ptr<const AtcIndex> openOrThrow(
        std::unique_ptr<ChunkStore> store, const IndexOptions &iopt = {});

    /**
     * Mint a new cursor positioned at record 0. Any number of cursors
     * may coexist; each is independent.
     */
    std::unique_ptr<AtcCursor> cursor(
        const CursorOptions &copt = {}) const;

    /** @return the parsed INFO (records included in lossy mode). */
    const ContainerInfo &info() const { return info_; }

    /** @return total records in the trace. */
    uint64_t size() const { return info_.count; }

    /** @return the container's compression mode. */
    Mode mode() const { return info_.mode; }

    /** @return the container format version. */
    uint8_t version() const { return info_.version; }

    /** @return number of chunks in the container. */
    uint32_t chunkCount() const;

    /** @return chunk @p id's scanned frame layout (@p id must be below
     *  chunkCount()). */
    const comp::StreamLayout &chunkLayout(uint32_t id) const
    {
        return layouts_[id];
    }

    /** @return cumulative record start offsets of the interval trace
     *  (records().size() + 1 entries); empty in lossless mode. */
    const std::vector<uint64_t> &recordStarts() const
    {
        return record_starts_;
    }

    /** @return the backing store. */
    ChunkStore &store() const { return *store_; }

    /** @return the configured codec shared by every reader over this
     *  container (codecs are stateless and thread-safe). */
    const comp::ConfiguredCodec &codec() const { return codec_; }

    // ---- shared decoded-block cache (see IndexOptions::cache_bytes).
    // The caches are internally synchronized mutable state attached to
    // the otherwise-immutable snapshot; sharing the index across
    // threads shares them too.

    /** @return the decoded-frame cache (lossless cursors). */
    BlockCache<uint8_t> &frameCache() const { return frame_cache_; }

    /** @return the decoded-chunk cache (lossy cursors). */
    BlockCache<uint64_t> &chunkCache() const { return chunk_cache_; }

    /**
     * @return the aggregate counters of whichever shared cache this
     * container's mode uses (decoded frames in lossless, decoded
     * chunks in lossy) — the one public window onto cache behaviour,
     * consumed by `atcinfo` and the serving daemon's STAT op.
     */
    BlockCacheStats
    cacheStats() const
    {
        return info_.mode == Mode::Lossy ? chunk_cache_.stats()
                                         : frame_cache_.stats();
    }

    // ---- lossless transform-buffer geometry (derived from INFO) ----
    // The raw (pre-codec) stream is a sequence of self-contained
    // transform buffers — varint(n) + 8n bytes each — of exactly
    // buffer_addrs records apiece (the final one possibly shorter), so
    // the raw byte offset of any buffer is computable without I/O.

    /** @return the transform buffer containing record @p rec. */
    uint64_t bufferOf(uint64_t rec) const;

    /** @return records in transform buffer @p b. */
    uint64_t bufferLen(uint64_t b) const;

    /** @return raw-stream byte offset where buffer @p b starts. */
    uint64_t bufferRawOffset(uint64_t b) const;

    AtcIndex(const AtcIndex &) = delete;
    AtcIndex &operator=(const AtcIndex &) = delete;

  private:
    friend class AtcCursor;

    AtcIndex(ChunkStore &store, const IndexOptions &iopt);
    AtcIndex(std::unique_ptr<ChunkStore> owned, const IndexOptions &iopt);

    void load();

    std::unique_ptr<ChunkStore> owned_store_;
    ChunkStore *store_;
    ContainerInfo info_;
    comp::ConfiguredCodec codec_;
    /** One scanned layout per chunk, indexed by chunk id. */
    std::vector<comp::StreamLayout> layouts_;
    /** Lossy only: record_starts_[i] = first record of interval i. */
    std::vector<uint64_t> record_starts_;
    /** Only the mode-appropriate cache is ever populated; the other
     *  stays an empty shell (see IndexOptions::cache_bytes). */
    mutable BlockCache<uint8_t> frame_cache_;
    mutable BlockCache<uint64_t> chunk_cache_;
};

/** Seekable reader over one AtcIndex; see the file comment. */
class AtcCursor : public trace::TraceCursor
{
  public:
    AtcCursor(std::shared_ptr<const AtcIndex> index,
              const CursorOptions &copt);

    /** A cursor that shares ownership of @p pool (may be null). */
    AtcCursor(std::shared_ptr<const AtcIndex> index,
              std::shared_ptr<parallel::ThreadPool> pool);

    ~AtcCursor() override;

    AtcCursor(const AtcCursor &) = delete;
    AtcCursor &operator=(const AtcCursor &) = delete;

    /** Produce up to @p n records from the current position. */
    size_t read(uint64_t *out, size_t n) override;

    util::Status seek(uint64_t record_index) override;
    uint64_t tell() const override { return pos_; }
    uint64_t size() const override { return index_->size(); }
    util::Status readRange(uint64_t begin, uint64_t end,
                           std::vector<uint64_t> &out) override;

    /** @return the shared index this cursor reads through. */
    const std::shared_ptr<const AtcIndex> &index() const { return index_; }

  private:
    class FrameSource;
    class ChunkWindow;

    void start(uint64_t rec);
    void startLossless(uint64_t rec);
    void startLossy(uint64_t rec);
    std::unique_ptr<LossyDecoder> lossyDecoder(
        std::unique_ptr<ChunkWindow> &window, parallel::ThreadPool *pool,
        size_t end_record, bool populate) const;
    void rangeLossless(uint64_t begin, uint64_t end,
                       std::vector<uint64_t> &out);
    void rangeLossy(uint64_t begin, uint64_t end,
                    std::vector<uint64_t> &out);

    std::shared_ptr<const AtcIndex> index_;
    std::shared_ptr<parallel::ThreadPool> pool_owner_;
    parallel::ThreadPool *pool_;
    uint64_t pos_ = 0;

    // Lossless: decoded frames from the current position onward, and
    // the inverse transform over them (both null at end of trace).
    std::unique_ptr<FrameSource> frames_;
    std::unique_ptr<TransformDecoder> transform_;

    // Lossy: the interval regenerator, fed by its chunk window.
    std::unique_ptr<ChunkWindow> chunks_;
    std::unique_ptr<LossyDecoder> lossy_;
};

} // namespace atc::core

#endif // ATC_ATC_INDEX_HPP_

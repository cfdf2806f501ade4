/**
 * @file
 * Lossy phase-based trace compression (paper §5.2).
 *
 * The trace is cut into intervals of L addresses. The first interval
 * always becomes a chunk (losslessly compressed with bytesort). Each
 * later interval is compared, via the sorted-byte-histogram distance,
 * against the signatures of recent chunks held in a bounded histogram
 * table (oldest chunk evicted when full). If the nearest chunk is
 * within epsilon, the interval is recorded as an *imitation* of that
 * chunk plus byte translations; otherwise it becomes a new chunk.
 *
 * The encoder produces chunks (into a ChunkStore) and an interval
 * record list; INFO serialization lives with the top-level AtcWriter.
 * Given a pool, it computes interval signatures and compresses chunks
 * as pool tasks: each stage keeps an ordered window of
 * parallel::windowDepth(pool) tasks, and the order-dependent decision
 * between them runs on the caller as signatures resolve, so the
 * container is the same for every pool size. A caller waiting on
 * either window runs queued pool tasks meanwhile (parallel::await()).
 * Each chunk task compresses its interval inline, without a pool.
 *
 * The decoder regenerates the address stream from chunks + records,
 * reading decompressed chunks through a BlockCache — either a shared
 * one (an AtcIndex's, so every cursor over the container reuses one
 * working set) or a private instance — or from a caller-supplied
 * fetch (an AtcCursor's chunk window).
 */

#ifndef ATC_ATC_LOSSY_HPP_
#define ATC_ATC_LOSSY_HPP_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "atc/block_cache.hpp"
#include "atc/container.hpp"
#include "atc/histogram.hpp"
#include "atc/lossless.hpp"

namespace atc::core {

/** Parameters of the lossy scheme. */
struct LossyParams
{
    /** Interval length L in addresses (paper: 10M). */
    uint64_t interval_len = 10'000'000;
    /** Similarity threshold epsilon (paper: 0.1). */
    double epsilon = 0.1;
    /** Histogram-table capacity in chunks (oldest evicted). */
    size_t chunk_table = 256;
    /** Disable to reproduce Figure 4's ablation. */
    bool translate = true;
    /** Byte budget of the decoder's decompressed-chunk cache (used
     *  only when the decoder owns its cache — decoders sharing an
     *  AtcIndex cache ignore it). Bytes-bounded, not chunk-counted:
     *  at paper scale one chunk is interval_len * 8 = 80 MB, so a
     *  count-based knob made the footprint workload-dependent. */
    size_t decoder_cache_bytes = kDefaultDecodedCacheBytes;
    /** Per-chunk lossless pipeline (paper: bytesort, B = 1M). */
    LosslessParams chunk_params;
};

/** One entry of the interval trace. */
struct IntervalRecord
{
    enum class Kind : uint8_t
    {
        Chunk = 0,   ///< interval stored losslessly as chunk chunk_id
        Imitate = 1, ///< interval imitates chunk chunk_id
    };

    Kind kind = Kind::Chunk;
    uint32_t chunk_id = 0;
    uint64_t length = 0;
    /** Valid for Kind::Imitate. */
    ByteTranslation trans;
};

/** Encoder-side counters. */
struct LossyStats
{
    uint64_t addresses = 0;
    uint64_t intervals = 0;
    uint64_t chunks_created = 0;
    uint64_t imitated = 0;
};

/** Single-pass lossy compressor. */
class LossyEncoder
{
  public:
    /**
     * @param params scheme parameters
     * @param store  chunk destination (must outlive the encoder); only
     *               the caller's thread touches it
     * @param pool   borrowed workers for interval signatures and chunk
     *               compression (must outlive the encoder); null runs
     *               both on the caller
     */
    LossyEncoder(const LossyParams &params, ChunkStore &store,
                 parallel::ThreadPool *pool = nullptr);

    /** Feed a batch of addresses — the primary entry point. */
    void write(const uint64_t *addrs, size_t n);

    /** Feed one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /**
     * The signature stage of processing an interval: pure and
     * order-independent (histograms of the payload only), so it runs
     * as a pool task, while the decision stage stays order-dependent
     * (it walks the chunk table). Timed under lossy.signature_us
     * wherever it runs.
     */
    static IntervalSignature signatureOf(const uint64_t *addrs, size_t n);

    /** Flush the final (possibly partial) interval and every pending
     *  chunk; runs once. */
    void finish();

    /** @return counters (valid after finish()). */
    const LossyStats &stats() const { return stats_; }

    /** @return the interval trace (valid after finish()). */
    const std::vector<IntervalRecord> &records() const { return records_; }

  private:
    /** One interval with its signature, as a signature task returns
     *  it. Tasks own their payload, so an abandoned encoder never
     *  leaves a worker on freed memory. */
    struct Interval
    {
        std::vector<uint64_t> addrs;
        IntervalSignature sig;
    };

    void launchInterval();
    void drainIntervals(size_t keep);
    void decide(Interval interval);
    void emitChunk(Interval interval);
    void drainChunks(size_t keep);

    struct TableEntry
    {
        uint32_t chunk_id;
        IntervalSignature sig;
    };

    LossyParams params_;
    ChunkStore &store_;
    parallel::ThreadPool *pool_;
    std::vector<uint64_t> buffer_;
    std::deque<std::future<Interval>> intervals_;
    std::deque<std::pair<uint32_t, std::future<std::vector<uint8_t>>>>
        chunks_;
    std::deque<TableEntry> table_;
    std::vector<IntervalRecord> records_;
    LossyStats stats_;
    bool finished_ = false;
};

/**
 * Decompress chunk @p id of @p store in full through the per-chunk
 * lossless pipeline of @p params. The one whole-chunk decode used by
 * every lossy consumer (LossyDecoder and the cursor's chunk window), so they reject corrupt chunks identically. Thread-safe for
 * concurrent calls (openChunk must be — see ChunkStore).
 */
std::vector<uint64_t> decodeChunkPayload(const LosslessParams &params,
                                         ChunkStore &store, uint32_t id);

/** Streaming regenerator for lossy traces. */
class LossyDecoder
{
  public:
    /** Cache of decompressed chunks, keyed by chunk id. */
    using ChunkCache = BlockCache<uint64_t>;

    /** Supplies the decompressed chunk of interval record
     *  @p record_idx, in place of the cache lookup + inline decode. */
    using ChunkFetch = std::function<ChunkCache::Ptr(size_t record_idx)>;

    /**
     * @param params  parameters used at encode time (chunk pipeline,
     *                decoder cache budget)
     * @param store   chunk source (must outlive the decoder)
     * @param records interval trace parsed from INFO
     * @param cache   shared decompressed-chunk cache (e.g. an
     *                AtcIndex's; must outlive the decoder); when null
     *                the decoder owns a private cache bounded by
     *                params.decoder_cache_bytes
     */
    LossyDecoder(const LossyParams &params, ChunkStore &store,
                 std::vector<IntervalRecord> records,
                 ChunkCache *cache = nullptr);

    /**
     * Borrowing variant for shared, read-only interval traces (e.g.
     * the records held by an AtcIndex): @p records must outlive the
     * decoder. Imitation translations can run to 2 KiB per record, so
     * cursors sharing one index must not copy the trace per cursor.
     * When @p fetch is set, every interval's chunk comes from it and
     * @p cache is not consulted.
     */
    LossyDecoder(const LossyParams &params, ChunkStore &store,
                 const std::vector<IntervalRecord> *records,
                 ChunkCache *cache = nullptr, ChunkFetch fetch = nullptr);

    // records_ may point at the sibling owned_records_, so the
    // compiler-generated copy/move would leave the copy dangling.
    LossyDecoder(const LossyDecoder &) = delete;
    LossyDecoder &operator=(const LossyDecoder &) = delete;

    /**
     * Produce up to @p n regenerated addresses — the primary entry.
     * @return addresses produced; 0 means end of trace
     */
    size_t read(uint64_t *out, size_t n);

    /**
     * Produce the next regenerated address.
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

    /**
     * Reposition so the next read() starts at the beginning of
     * interval record @p record_idx (== records().size() positions at
     * end of trace). The decompressed-chunk cache is kept — seeking
     * around a working set of imitated intervals stays cheap.
     */
    void seekRecord(size_t record_idx);

    /** @return the interval trace driving this decoder. */
    const std::vector<IntervalRecord> &records() const { return *records_; }

  private:
    /** Load (through the cache) decompressed chunk @p id; the result
     *  stays pinned in current_chunk_ until the next load. */
    const std::vector<uint64_t> &loadChunk(uint32_t id);
    bool nextInterval();

    LossyParams params_;
    ChunkStore &store_;
    std::vector<IntervalRecord> owned_records_;
    const std::vector<IntervalRecord> *records_;
    size_t record_idx_ = 0;

    // Decompressed-chunk cache: the shared one when provided, else an
    // owned private instance. current_chunk_ pins the active chunk so
    // eviction (by this decoder or a sibling sharing the cache) never
    // pulls it out from under an in-flight interval.
    std::unique_ptr<ChunkCache> owned_cache_;
    ChunkCache *cache_;
    ChunkCache::Ptr current_chunk_;
    uint32_t current_id_ = 0;
    ChunkFetch fetch_;

    std::vector<uint64_t> interval_;
    size_t pos_ = 0;
};

} // namespace atc::core

#endif // ATC_ATC_LOSSY_HPP_

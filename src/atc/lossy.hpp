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
 * container is the same for every pool size. Both windows hold
 * parallel::Task handles, so a caller waiting on either runs queued
 * pool tasks meanwhile. Each chunk task compresses its interval
 * inline, without a pool.
 *
 * Decoding is AtcCursor's: it regenerates the address stream from the
 * interval records, through a chunk window over the AtcIndex's shared
 * cache (see index.hpp).
 */

#ifndef ATC_ATC_LOSSY_HPP_
#define ATC_ATC_LOSSY_HPP_

#include <cstdint>
#include <deque>
#include <vector>

#include "atc/container.hpp"
#include "atc/histogram.hpp"
#include "atc/lossless.hpp"
#include "parallel/thread_pool.hpp"

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
     * @param params   scheme parameters
     * @param pipeline per-chunk lossless pipeline (paper: bytesort,
     *                 B = 1M)
     * @param store    chunk destination (must outlive the encoder);
     *                 only the caller's thread touches it
     * @param pool     borrowed workers for interval signatures and
     *                 chunk compression (must outlive the encoder);
     *                 null runs both on the caller
     */
    LossyEncoder(const LossyParams &params, const LosslessParams &pipeline,
                 ChunkStore &store, parallel::ThreadPool *pool = nullptr);

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
    LosslessParams pipeline_;
    ChunkStore &store_;
    parallel::ThreadPool *pool_;
    std::vector<uint64_t> buffer_;
    std::deque<parallel::Task<Interval>> intervals_;
    /** Compressed chunks not yet stored, oldest (lowest id) first. */
    std::deque<parallel::Task<std::vector<uint8_t>>> chunks_;
    std::deque<TableEntry> table_;
    std::vector<IntervalRecord> records_;
    LossyStats stats_;
    bool finished_ = false;
};

} // namespace atc::core

#endif // ATC_ATC_LOSSY_HPP_

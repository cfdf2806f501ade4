/**
 * @file
 * Shared decoded-block cache for the random-access read path.
 *
 * Re-decoding a whole codec block (~256 KiB) dominated every seek, and
 * each lossy cursor kept a private decompressed-chunk cache — so two
 * cursors over one container decoded the same working set twice.
 * BlockCache is the shared substrate fixing both: one instance hangs
 * off an AtcIndex and every AtcCursor minted from it reads through it.
 * Lossless cursors cache decoded frames keyed by (chunk, frame);
 * lossy cursors cache decoded chunks keyed by chunk id. The budget is
 * in *bytes* (the old knob counted chunks, which made the footprint
 * proportional to interval_len — 80 MiB per entry at paper scale).
 *
 * Concurrency: the key space is sharded by hash; each shard holds its
 * own mutex, map and intrusive LRU list, so cursors on different
 * threads contend only when they touch the same shard. Values are
 * immutable vectors handed out as shared_ptr — eviction never
 * invalidates a block a reader is still holding.
 *
 * Sizing semantics: a shard over budget evicts from the cold end but
 * keeps its most-recently-used entry, so a budget between one block
 * and the working-set size degrades to a small per-shard cache
 * instead of thrashing to nothing. The keep-newest exception is
 * bounded by the *aggregate* budget: a block larger than the entire
 * budget is never retained, and a shard may hold an over-its-share
 * newest entry only while the cache as a whole still fits (N shards
 * must not pin N over-budget blocks — at paper scale one lossy chunk
 * is 80 MB). Total residency therefore never exceeds capacity plus
 * one block. A budget of 0 disables the cache entirely (get always
 * misses, put stores nothing — it just wraps the block so callers
 * are oblivious). Shard count trades contention against budget
 * fragmentation: many small blocks (frames) want more shards, few
 * large blocks (chunks) fewer.
 */

#ifndef ATC_ATC_BLOCK_CACHE_HPP_
#define ATC_ATC_BLOCK_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace atc::core {

namespace detail {

// Process-wide cache counters on the obs registry, aggregated over
// every BlockCache instance (both element types). Per-instance
// figures remain available through stats().
struct CacheObsMetrics {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &insertions;
    obs::Counter &evictions;
};

inline CacheObsMetrics &
cacheObsMetrics()
{
    auto &r = obs::Registry::global();
    static CacheObsMetrics m{
        r.counter("cache.hits"),
        r.counter("cache.misses"),
        r.counter("cache.insertions"),
        r.counter("cache.evictions"),
    };
    return m;
}

}  // namespace detail

/** Default budget of the shared decoded-block cache (see AtcIndex):
 *  large enough to retain a few paper-scale lossy chunks (80 MB at
 *  interval_len = 10M), far below the old count-based default's
 *  worst-case footprint (8 chunks regardless of size). */
constexpr size_t kDefaultDecodedCacheBytes = size_t(256) << 20;

/** Aggregate counters of a BlockCache, summed over its shards. */
struct BlockCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Current footprint (payload bytes) and resident entry count. */
    size_t bytes = 0;
    size_t entries = 0;
};

/** Concurrency-safe sharded LRU cache of decoded blocks (see the file
 *  comment). @p T is the element type of the cached vectors: uint8_t
 *  for decoded codec frames, uint64_t for decoded lossy chunks. */
template <typename T>
class BlockCache
{
  public:
    using Block = std::vector<T>;
    using Ptr = std::shared_ptr<const Block>;

    /**
     * @param capacity_bytes payload budget summed over all shards;
     *        0 disables caching
     * @param shards lock-striping width (clamped to >= 1)
     */
    explicit BlockCache(size_t capacity_bytes, size_t shards = 8)
        : capacity_(capacity_bytes),
          shards_(capacity_bytes == 0 ? 1 : (shards == 0 ? 1 : shards))
    {
        shard_capacity_ = capacity_ / shards_.size();
    }

    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    /** Compose the key of frame @p frame of chunk @p chunk_id. */
    static constexpr uint64_t
    frameKey(uint32_t chunk_id, uint64_t frame)
    {
        return (static_cast<uint64_t>(chunk_id) << 32) | frame;
    }

    /** @return the cached block for @p key, refreshed to
     *  most-recently-used, or nullptr on a miss. */
    Ptr
    get(uint64_t key)
    {
        if (capacity_ == 0)
            return nullptr;
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            ++shard.misses;
            detail::cacheObsMetrics().misses.inc();
            return nullptr;
        }
        ++shard.hits;
        detail::cacheObsMetrics().hits.inc();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->block;
    }

    /**
     * Insert @p block under @p key and return the resident entry. When
     * @p key is already cached (another cursor decoded it first) the
     * existing block wins and @p block is dropped — both are decodes
     * of the same immutable frame. With the cache disabled the block
     * is wrapped and returned without being stored.
     */
    Ptr
    put(uint64_t key, Block block)
    {
        size_t bytes = block.size() * sizeof(T);
        Ptr ptr = std::make_shared<const Block>(std::move(block));
        // Disabled, or a block larger than the entire budget: hand it
        // back unstored (see the file comment on sizing semantics).
        if (capacity_ == 0 || bytes > capacity_)
            return ptr;
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return it->second->block;
        }
        shard.lru.push_front(Entry{key, std::move(ptr), bytes});
        shard.map.emplace(key, shard.lru.begin());
        shard.bytes += bytes;
        total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
        ++shard.insertions;
        detail::cacheObsMetrics().insertions.inc();
        // Evict cold entries, but never the one just inserted: a
        // shard budget below one block still caches its hot block.
        while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
            Entry &victim = shard.lru.back();
            shard.bytes -= victim.bytes;
            total_bytes_.fetch_sub(victim.bytes,
                                   std::memory_order_relaxed);
            shard.map.erase(victim.key);
            shard.lru.pop_back();
            ++shard.evictions;
            detail::cacheObsMetrics().evictions.inc();
        }
        // The keep-newest exception holds only while the cache as a
        // whole still fits: when this shard is over its share AND the
        // aggregate is over budget, the new entry is handed back
        // unstored rather than pinned (see the file comment).
        if (shard.bytes > shard_capacity_ &&
            total_bytes_.load(std::memory_order_relaxed) > capacity_) {
            Entry &front = shard.lru.front();
            Ptr keep = std::move(front.block);
            shard.bytes -= front.bytes;
            total_bytes_.fetch_sub(front.bytes,
                                   std::memory_order_relaxed);
            shard.map.erase(front.key);
            shard.lru.pop_front();
            ++shard.evictions;
            detail::cacheObsMetrics().evictions.inc();
            return keep;
        }
        return shard.lru.front().block;
    }

    /** @return true when a nonzero budget was configured. */
    bool enabled() const { return capacity_ != 0; }

    /** @return the configured payload budget in bytes. */
    size_t capacityBytes() const { return capacity_; }

    /** @return counters summed over the shards (a racy snapshot —
     *  individual shards are consistent, the sum is advisory). */
    BlockCacheStats
    stats() const
    {
        BlockCacheStats out;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.insertions += shard.insertions;
            out.evictions += shard.evictions;
            out.bytes += shard.bytes;
            out.entries += shard.lru.size();
        }
        return out;
    }

  private:
    struct Entry
    {
        uint64_t key;
        Ptr block;
        size_t bytes;
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::list<Entry> lru; // front = most recently used
        std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
            map;
        size_t bytes = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
    };

    Shard &
    shardFor(uint64_t key)
    {
        // Multiplicative hash: consecutive frame keys spread across
        // shards instead of marching through one.
        uint64_t h = key * 0x9E3779B97F4A7C15ull;
        return shards_[(h >> 32) % shards_.size()];
    }

    size_t capacity_;
    size_t shard_capacity_;
    /** Aggregate payload bytes across shards, maintained under the
     *  shard locks; read racily to bound the keep-newest exception. */
    std::atomic<size_t> total_bytes_{0};
    std::vector<Shard> shards_;
};

} // namespace atc::core

#endif // ATC_ATC_BLOCK_CACHE_HPP_

#include "cache/filter.hpp"

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::cache {

namespace {

// Stage accounting for the filter front-end: wall time and
// access/miss volume.
struct FilterMetrics {
    obs::Counter &filter_us;
    obs::Counter &accesses;
    obs::Counter &misses;
};

FilterMetrics &
filterMetrics()
{
    auto &r = obs::Registry::global();
    static FilterMetrics m{
        r.counter("cache.filter_us"),
        r.counter("cache.filter.accesses"),
        r.counter("cache.filter.misses"),
    };
    return m;
}

} // namespace

CacheFilter::CacheFilter(const CacheConfig &l1) : icache_(l1), dcache_(l1) {}

CacheFilter::CacheFilter(const CacheConfig &l1, const CacheConfig &l2)
    : icache_(l1), dcache_(l1), l2_(CacheModel(l2))
{
    // The L2 is fed block addresses in L1 granularity.
    ATC_CHECK(l1.block_bytes == l2.block_bytes,
              "filter levels must share a block size");
}

std::optional<uint64_t>
CacheFilter::access(uint64_t byte_addr, bool is_instr)
{
    CacheModel &l1 = is_instr ? icache_ : dcache_;
    if (l1.access(byte_addr))
        return std::nullopt;
    uint64_t block = l1.blockAddr(byte_addr);
    if (l2_ && l2_->accessBlock(block))
        return std::nullopt;
    return block;
}

void
CacheFilter::accessTagged(uint64_t byte_addr, bool is_instr, bool is_write,
                          std::vector<uint64_t> &out)
{
    CacheModel &l1 = is_instr ? icache_ : dcache_;
    uint64_t block = l1.blockAddr(byte_addr);
    std::optional<uint64_t> evicted_dirty;
    bool hit = l1.accessBlock(block, !is_instr && is_write, evicted_dirty);

    if (!hit) {
        // Demand miss, possibly absorbed by the L2.
        if (!l2_ || !l2_->accessBlock(block))
            out.push_back(block);
    }
    if (evicted_dirty) {
        // Write-backs go below the L1 regardless of the L2's contents;
        // with an L2 present the write-back is emitted only if the L2
        // does not hold the block (victim write-allocate model).
        if (!l2_ || !l2_->accessBlock(*evicted_dirty))
            out.push_back(*evicted_dirty | kWriteBackTag);
    }
}

void
FilterStage::write(const uint64_t *vals, size_t n)
{
    FilterMetrics &m = filterMetrics();
    obs::StageTimer t(m.filter_us);
    // Batch the surviving misses so the downstream stage sees spans,
    // not single values.
    batch_.clear();
    for (size_t i = 0; i < n; ++i) {
        if (auto miss = filter_.access(vals[i], is_instr_))
            batch_.push_back(*miss);
    }
    t.stop();
    m.accesses.add(static_cast<int64_t>(n));
    m.misses.add(static_cast<int64_t>(batch_.size()));
    if (!batch_.empty())
        down_.write(batch_.data(), batch_.size());
}

} // namespace atc::cache

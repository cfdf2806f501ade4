/**
 * @file
 * Cache filtering: turning raw access streams into miss traces.
 *
 * Reproduces the paper's trace-collection step: instruction and data
 * byte-address streams go through separate L1 caches (32 KB, 4-way,
 * LRU, 64 B blocks by default); the filtered trace is the in-order
 * sequence of missing *block* addresses from both caches. An optional
 * unified L2 can filter further ("one or more cache levels", §2).
 */

#ifndef ATC_CACHE_FILTER_HPP_
#define ATC_CACHE_FILTER_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_model.hpp"
#include "trace/pipeline.hpp"

namespace atc::cache {

/**
 * Tag placed in the otherwise-null MSBs of a block address to mark a
 * write-back record (paper §2 suggests exactly this use of the free
 * bits). Demand misses carry no tag.
 */
constexpr uint64_t kWriteBackTag = 1ull << 58;

/** Two-level I/D cache filter producing block-address miss streams. */
class CacheFilter
{
  public:
    /**
     * L1-only filter with identical I and D configurations.
     * @param l1 configuration for both L1 caches
     */
    explicit CacheFilter(const CacheConfig &l1 = CacheConfig::paperL1());

    /**
     * Filter with an additional unified L2 behind the L1s.
     * @param l1 configuration for both L1 caches
     * @param l2 configuration of the unified second level
     */
    CacheFilter(const CacheConfig &l1, const CacheConfig &l2);

    /**
     * Feed one access.
     * @param byte_addr accessed byte address
     * @param is_instr  true for instruction fetches (routes to the
     *                  I-cache), false for data accesses
     * @return the missing block address if the access missed all
     *         filtering levels, otherwise std::nullopt
     */
    std::optional<uint64_t> access(uint64_t byte_addr, bool is_instr);

    /**
     * Feed one access with write-back modelling (paper §2: the 6 null
     * MSBs of a block address may tag the record kind). Data writes
     * mark D-cache lines dirty; evicting a dirty line emits an extra
     * record tagged with kWriteBackTag. Instruction fetches are
     * read-only.
     *
     * @param byte_addr accessed byte address
     * @param is_instr  instruction fetch (I-cache, never dirty)
     * @param is_write  data write (marks the block dirty)
     * @param out       demand-miss and write-back records are appended
     */
    void accessTagged(uint64_t byte_addr, bool is_instr, bool is_write,
                      std::vector<uint64_t> &out);

    /** @return statistics of the instruction cache. */
    const CacheStats &icacheStats() const { return icache_.stats(); }

    /** @return statistics of the data cache. */
    const CacheStats &dcacheStats() const { return dcache_.stats(); }

    /** @return true if an L2 is configured. */
    bool hasL2() const { return l2_.has_value(); }

  private:
    CacheModel icache_;
    CacheModel dcache_;
    std::optional<CacheModel> l2_;
};

/**
 * Composable pipeline stage wrapping a CacheFilter: consumes raw byte
 * addresses and forwards the missing block addresses to a downstream
 * sink (paper Figure 8: generator -> filter -> compressor as one
 * chain). close() propagates downstream, sealing the pipeline.
 */
class FilterStage : public trace::TraceSink
{
  public:
    /**
     * @param down     downstream sink; must outlive the stage
     * @param l1       configuration for both L1 caches
     * @param is_instr route accesses to the I-cache instead of the D-cache
     */
    explicit FilterStage(trace::TraceSink &down,
                         const CacheConfig &l1 = CacheConfig::paperL1(),
                         bool is_instr = false)
        : down_(down), filter_(l1), is_instr_(is_instr)
    {}

    /** As above, with a unified L2 behind the L1s. */
    FilterStage(trace::TraceSink &down, const CacheConfig &l1,
                const CacheConfig &l2, bool is_instr = false)
        : down_(down), filter_(l1, l2), is_instr_(is_instr)
    {}

    void write(const uint64_t *vals, size_t n) override;

    void close() override { down_.close(); }

    /** @return I-cache statistics. */
    const CacheStats &icacheStats() const { return filter_.icacheStats(); }

    /** @return D-cache statistics. */
    const CacheStats &dcacheStats() const { return filter_.dcacheStats(); }

  private:
    trace::TraceSink &down_;
    CacheFilter filter_;
    bool is_instr_;
    std::vector<uint64_t> batch_;
};

} // namespace atc::cache

#endif // ATC_CACHE_FILTER_HPP_

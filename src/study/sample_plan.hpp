/**
 * @file
 * Sampling plans for scattered-window cache simulation.
 *
 * A SamplePlan turns a spec string into a list of SampleWindows over a
 * trace of known length. Each window is a contiguous record range
 * split into a warm-up prefix (fed to the simulator with statistics
 * suppressed, so the cache state is realistic when measurement
 * starts) and a measured body. The spec grammar is the codec-spec
 * grammar (`name:key=value,...`, k/m/g binary suffixes on sizes):
 *
 *  - systematic:windows=W,len=L,warmup=U
 *      W windows of U+L records at the start of W equal strides —
 *      the SMARTS-style periodic design. Requires W*(U+L) <= trace.
 *  - uniform:windows=W,len=L,warmup=U,seed=S
 *      W window starts drawn uniformly (deterministic in S), sorted
 *      ascending for seek locality; windows may overlap, but a plan
 *      still fetches no more records than the trace holds:
 *      W*(U+L) <= trace.
 *  - explicit:at=A+B+C,len=L,warmup=U
 *      caller-chosen starts, '+'-separated (each may carry a k/m/g
 *      suffix).
 *
 * Defaults: windows=32, len=65536, warmup=len/8, seed=1. describe()
 * returns the canonical spec with every parameter explicit, and
 * build(describe()) reproduces the identical plan.
 */

#ifndef ATC_STUDY_SAMPLE_PLAN_HPP_
#define ATC_STUDY_SAMPLE_PLAN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace atc::study {

/** One contiguous sampling window: warm-up prefix + measured body. */
struct SampleWindow
{
    uint64_t begin = 0;   ///< first fetched record (warm-up start)
    uint64_t warmup = 0;  ///< records fed with statistics suppressed
    uint64_t measure = 0; ///< records counted into the estimate

    /** @return one past the last record the window touches. */
    uint64_t end() const { return begin + warmup + measure; }

    /** @return records the window fetches (warm-up + measured). */
    uint64_t length() const { return warmup + measure; }
};

/** An immutable window list built from a spec; see the file comment. */
class SamplePlan
{
  public:
    /**
     * Build a plan over a trace of @p trace_records records.
     * Malformed specs, unknown families/keys, and plans that do not
     * fit the trace come back as an error status naming the offender.
     */
    static util::StatusOr<SamplePlan> build(const std::string &spec,
                                            uint64_t trace_records);

    /** @return the windows, ascending by begin (uniform plans sorted). */
    const std::vector<SampleWindow> &windows() const { return windows_; }

    /** @return the canonical spec (build(describe(), N) == *this). */
    const std::string &describe() const { return spec_; }

    /** @return total measured records across windows. */
    uint64_t measuredRecords() const;

    /** @return total fetched records (measured + warm-up). */
    uint64_t fetchedRecords() const;

  private:
    std::string spec_;
    std::vector<SampleWindow> windows_;
};

} // namespace atc::study

#endif // ATC_STUDY_SAMPLE_PLAN_HPP_

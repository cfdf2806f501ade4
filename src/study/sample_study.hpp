/**
 * @file
 * Sampling cache-simulation engine over seekable compressed traces —
 * the paper's §7 payoff: estimate whole-trace LRU miss ratios from
 * many scattered windows without decoding the trace in between.
 *
 * A SampleStudy runs min(windows, pool size) workers on a ThreadPool
 * and deals the windows of a SamplePlan to them on demand: each worker
 * takes the next undealt window from a counter local to the call,
 * fetches and simulates it, and asks again, so a worker whose part of
 * the trace decodes cheaply takes more windows instead of idling
 * (windows are not split into fixed contiguous runs). Each worker
 * drives its own window fetcher:
 *
 *  - local backend: a private core::AtcCursor over one shared
 *    AtcIndex (and therefore one shared decoded-block cache) —
 *    record-exact readRange() per window, or seek+read when
 *    StudyOptions::fetch is kSeek;
 *  - served backend: its own serve::ServeClient connection to an
 *    atcserved daemon, issuing up to pipeline_depth pipelined
 *    READ_RANGE (or SEEK) requests, each free slot refilled from the
 *    dealer, so window fetches overlap the network round trip.
 *
 * Every window feeds one cache::StackSimulator per requested set
 * count: the warm-up prefix with statistics suppressed
 * (StackSimulator::setWarmup), the measured body recorded. Per-window
 * simulators are merged exactly (StackSimulator::merge) into
 * whole-trace estimates, per-window miss ratios kept for the
 * per-geometry confidence intervals, and the engine reports how many
 * compressed-trace bytes were actually decoded — obs counter deltas
 * (codec.decode.raw_bytes / codec.decode.frames) locally, METRICS-op
 * deltas against the daemon remotely — so "sampling decodes a
 * fraction of the trace" is measured, not assumed.
 *
 * Estimate semantics: the merged (access-weighted) miss ratio is the
 * point estimate; the 95% confidence interval treats per-window miss
 * ratios as i.i.d. samples (mean +- 1.96 * stderr). Windows of a
 * systematic plan are equal-sized, so the window mean and the merged
 * ratio coincide there; CIs on overlapping uniform windows are
 * approximate. See docs/sampling.md.
 *
 * Results are written by window index and merging is integer
 * addition, so they are bit-identical whichever worker takes which
 * window, for any thread count and either backend. The first worker
 * that fails closes the dealer; the rest finish the window in hand and
 * stop.
 *
 * Thread-safety: run* calls are self-contained (two studies may share
 * one borrowed pool); the shared AtcIndex is immutable and its
 * BlockCache internally synchronized, cursors and ServeClients are
 * per-worker. Decoded-byte attribution reads
 * process-global counters, so concurrent unrelated decode activity in
 * the same process (or against the same daemon) inflates the numbers.
 */

#ifndef ATC_STUDY_SAMPLE_STUDY_HPP_
#define ATC_STUDY_SAMPLE_STUDY_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/stack_sim.hpp"
#include "study/sample_plan.hpp"
#include "util/status.hpp"

namespace atc::core {
class AtcIndex;
} // namespace atc::core

namespace atc::parallel {
class ThreadPool;
} // namespace atc::parallel

namespace atc::study {

/** How a worker turns a SampleWindow into records. */
enum class Fetch {
    /** readRange(): record-exact in every mode (lossy intervals are
     *  sliced). The default. */
    kRange,
    /** seek(begin) + read(length): cheaper on lossy containers but
     *  lands on the containing interval boundary, shifting the window
     *  earlier — the quantified approximation of docs/sampling.md. */
    kSeek,
};

/** Knobs of a sampling study. */
struct StudyOptions
{
    /** Cache set counts to simulate (each a power of two); one
     *  StackSimulator per entry covers associativities 1..max_ways. */
    std::vector<uint32_t> sets = {64, 256, 1024};
    uint32_t max_ways = 16;

    /** Address-to-block shift (64-byte lines by default). */
    uint32_t block_shift = 6;

    /** Worker threads when no pool is borrowed; 0 = hardware. */
    size_t threads = 0;

    /** Borrowed pool (must outlive the call); overrides threads. */
    parallel::ThreadPool *pool = nullptr;

    /** Served backend: window fetches in flight per worker. */
    size_t pipeline_depth = 4;

    Fetch fetch = Fetch::kRange;
};

/** One window's outcome. */
struct WindowResult
{
    SampleWindow window;
    /** Where the fetch actually started: window.begin under kRange;
     *  under kSeek on a lossy container, the containing interval
     *  boundary at or before it. */
    uint64_t actual_begin = 0;
    /** CRC-32 of the fetched record payload — the backend-parity
     *  audit hook (local and served fetches of one window match). */
    uint32_t crc = 0;
    /** miss_ratio[sets_idx][w-1] = this window's w-way miss ratio. */
    std::vector<std::vector<double>> miss_ratio;
};

/** Point estimate + 95% confidence half-width for one geometry. */
struct Estimate
{
    double ratio = 0;
    double ci95 = 0;
};

/** Everything a sampling run produced. */
struct StudyResult
{
    std::string plan;            ///< canonical plan spec
    std::vector<uint32_t> sets;  ///< simulated set counts
    uint32_t max_ways = 0;

    /** merged[sets_idx]: exact union of the per-window simulators. */
    std::vector<cache::StackSimulator> merged;
    /** Per window, in plan order (deterministic across thread counts
     *  and backends). */
    std::vector<WindowResult> windows;

    uint64_t measured_records = 0;
    uint64_t fetched_records = 0;
    double seconds = 0;

    /** Compressed-trace bytes actually decoded to serve the windows
     *  (obs delta of codec.decode.raw_bytes); -1 when unattributable
     *  (observability off). Frames likewise. */
    int64_t decoded_bytes = -1;
    int64_t decoded_frames = -1;

    /** Merged (access-weighted) miss ratio. */
    double missRatio(size_t sets_idx, uint32_t ways) const;

    /** Merged ratio + 95% CI from the per-window spread. */
    Estimate estimate(size_t sets_idx, uint32_t ways) const;

    /** Order-stable CRC over every window's payload CRC — one number
     *  that differs iff any window's records differ. */
    uint32_t windowsCrc() const;

    /** CRC over the merged stack-distance histograms and counters —
     *  one number that differs iff any merged statistic differs. */
    uint32_t histCrc() const;
};

/** A full-trace reference pass over the same simulators. */
struct ReferenceResult
{
    std::vector<uint32_t> sets;
    uint32_t max_ways = 0;
    std::vector<cache::StackSimulator> merged;
    uint64_t records = 0;
    double seconds = 0;
    int64_t decoded_bytes = -1;
    int64_t decoded_frames = -1;

    double missRatio(size_t sets_idx, uint32_t ways) const;
};

/**
 * Run the plan against a local container through @p index. Windows
 * are dealt to the workers on demand, one at a time; results are
 * deterministic for a given (container, plan, options) regardless of
 * thread count. An owned pool gets min(threads, windows) workers.
 */
util::StatusOr<StudyResult> runSampleStudy(
    std::shared_ptr<const core::AtcIndex> index, const SamplePlan &plan,
    const StudyOptions &opt);

/**
 * Run the plan against an atcserved daemon at @p host : @p port,
 * container @p name. One connection per worker plus a control
 * connection for the METRICS deltas; windows are dealt on demand as
 * in runSampleStudy, and requests are pipelined pipeline_depth deep.
 * Records, merged statistics, and CRCs are identical to the local
 * backend over the same container.
 */
util::StatusOr<StudyResult> runSampleStudyServed(
    const std::string &host, uint16_t port, const std::string &name,
    const SamplePlan &plan, const StudyOptions &opt);

/** Simulate the whole trace once — the accuracy reference. */
util::StatusOr<ReferenceResult> runFullReference(
    std::shared_ptr<const core::AtcIndex> index, const StudyOptions &opt);

/**
 * Largest absolute sampled-vs-reference miss-ratio difference across
 * every (sets, ways) geometry — the headline error metric.
 */
double worstAbsError(const StudyResult &sampled,
                     const ReferenceResult &reference);

} // namespace atc::study

#endif // ATC_STUDY_SAMPLE_STUDY_HPP_

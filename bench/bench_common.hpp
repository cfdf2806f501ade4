/**
 * @file
 * Shared helpers for the experiment harnesses in bench/.
 *
 * Every binary regenerates one table or figure of the paper, printing
 * the paper's reference numbers next to the measured ones. Trace
 * lengths are scaled down from the paper's 100M/1G addresses (the
 * algorithms are length-scale-free); set ATC_BENCH_SCALE to grow or
 * shrink all experiments (default 1.0).
 */

#ifndef ATC_BENCH_BENCH_COMMON_HPP_
#define ATC_BENCH_BENCH_COMMON_HPP_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "atc/atc.hpp"
#include "atc/bytesort.hpp"
#include "cache/filter.hpp"
#include "tcgen/tcgen.hpp"
#include "trace/suite.hpp"

namespace atc::bench {

/**
 * The one clock every harness times with: steady_clock is monotonic,
 * so cells are immune to NTP slews and wall-clock jumps mid-run
 * (system_clock is not — do not "fix" this back).
 */
using Clock = std::chrono::steady_clock;

/** @return seconds elapsed from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @return the CPU time of the calling thread, in seconds. Time spent
 *  waiting for a core of a shared machine is left out, so a
 *  single-threaded measurement reads the work, not the neighbours. */
inline double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/**
 * Best-of-k timing with a discarded warm-up run: run @p fn once
 * untimed (first-touch page faults, pool spin-up, branch history),
 * then @p k timed runs, keeping the minimum. Short cells — exactly
 * what a small-N matrix sweep produces — are otherwise dominated by
 * first-touch noise; the minimum is the standard robust estimator for
 * "how fast can this go".
 *
 * @param k  timed repetitions (>= 1)
 * @param fn nullary callable; invoked k+1 times total
 * @return best wall-clock seconds over the k timed runs
 */
template <typename Fn>
inline double
bestOfK(int k, Fn &&fn)
{
    fn(); // warm-up, untimed
    double best = 1e100;
    for (int i = 0; i < (k < 1 ? 1 : k); ++i) {
        auto t0 = Clock::now();
        fn();
        best = std::min(best, seconds(t0, Clock::now()));
    }
    return best;
}

/** @return environment scale factor for all experiment sizes. */
inline double
benchScale()
{
    const char *env = std::getenv("ATC_BENCH_SCALE");
    if (!env)
        return 1.0;
    double scale = std::atof(env);
    return scale > 0 ? scale : 1.0;
}

/** @return @p base scaled by ATC_BENCH_SCALE, at least @p floor. */
inline size_t
scaledLen(size_t base, size_t floor = 65536)
{
    auto len = static_cast<size_t>(static_cast<double>(base) *
                                   benchScale());
    return len < floor ? floor : len;
}

/**
 * The first @p addrs addresses of the `archive` workload's input: four
 * suite models, one per behaviour class (462.libquantum, 403.gcc,
 * 429.mcf, 400.perlbench), each filtered by the paper's L1 D-cache
 * (cache::FilterStage), in equal parts, concatenated.
 */
inline std::vector<uint64_t>
suiteTrace(size_t addrs, uint64_t seed = 1)
{
    static const char *const models[] = {"462.libquantum", "403.gcc",
                                         "429.mcf", "400.perlbench"};
    const size_t per_model = (addrs + 3) / 4;
    std::vector<uint64_t> trace;
    for (size_t m = 0; m < 4; ++m) {
        trace::GeneratorPtr gen =
            trace::benchmarkByName(models[m]).makeData(seed * 4 + m);
        std::vector<uint64_t> misses;
        trace::VectorTraceSink sink(misses);
        cache::FilterStage filter(sink);
        while (misses.size() < per_model)
            filter.put(gen->next());
        trace.insert(trace.end(), misses.begin(),
                     misses.begin() + per_model);
    }
    trace.resize(addrs);
    return trace;
}

/**
 * The codec's input as the reader of a filtered trace sees it: the
 * bytesort planes of suiteTrace(), in transform buffers of up to 2^20
 * addresses (paper geometry). Returns the first @p bytes of the
 * planes. At 1 MiB and more, a BWT block of them holds ~20-40k runs
 * per MiB, as the filtered suite traces do; random low address bits
 * give an order of magnitude more.
 */
inline std::vector<uint8_t>
suitePlanes(size_t bytes, uint64_t seed = 1)
{
    std::vector<uint64_t> trace = suiteTrace((bytes + 7) / 8, seed);
    const size_t addrs = trace.size();
    std::vector<uint8_t> planes(8 * addrs);
    const size_t buffer = size_t(1) << 20;
    for (size_t off = 0; off < addrs; off += buffer)
        core::bytesortForward(trace.data() + off,
                              std::min(buffer, addrs - off),
                              planes.data() + 8 * off);
    planes.resize(bytes);
    return planes;
}

/** Bits per address of a transform+BWC pipeline over @p trace. */
inline double
transformBpa(const std::vector<uint64_t> &trace, core::Transform transform,
             size_t buffer_addrs)
{
    util::CountingSink sink;
    core::LosslessParams params;
    params.transform = transform;
    params.buffer_addrs = buffer_addrs;
    core::LosslessWriter writer(params, sink);
    writer.write(trace.data(), trace.size());
    writer.finish();
    return 8.0 * static_cast<double>(sink.count()) /
           static_cast<double>(trace.size());
}

/** Bits per address of the TCgen baseline over @p trace. */
inline double
tcgenBpa(const std::vector<uint64_t> &trace, const tcg::TcgenConfig &cfg)
{
    auto result = tcg::tcgenCompress(trace, cfg);
    return 8.0 * static_cast<double>(result.totalBytes()) /
           static_cast<double>(trace.size());
}

/** Result of a lossy compression pass. */
struct LossyRun
{
    double bpa = 0.0;
    core::LossyStats stats;
};

/** Lossy-compress @p trace into @p store with paper proportions. */
inline LossyRun
lossyCompress(const std::vector<uint64_t> &trace, core::MemoryStore &store,
              uint64_t interval_len, bool translate = true)
{
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossy;
    opt.lossy.interval_len = interval_len;
    opt.lossy.translate = translate;
    opt.pipeline.buffer_addrs =
        std::max<uint64_t>(interval_len / 10, 4096);
    core::AtcWriter writer(store, opt);
    writer.write(trace.data(), trace.size());
    writer.close();
    LossyRun run;
    run.bpa = 8.0 * static_cast<double>(store.totalBytes()) /
              static_cast<double>(trace.size());
    run.stats = writer.lossyStats();
    return run;
}

/** Regenerate the full address stream of a store written by AtcWriter. */
inline std::vector<uint64_t>
regenerate(core::MemoryStore &store)
{
    core::AtcReader reader(store);
    std::vector<uint64_t> out(reader.count());
    size_t got = 0;
    while (got < out.size()) {
        size_t n = reader.read(out.data() + got, out.size() - got);
        if (n == 0)
            break;
        got += n;
    }
    out.resize(got);
    return out;
}

/** Paper Table 1 reference rows (bits per address). */
struct Table1Ref
{
    const char *name;
    double bz2, us, tcg, bs1, bs10;
};

inline const std::vector<Table1Ref> &
table1Reference()
{
    static const std::vector<Table1Ref> ref = {
        {"400.perlbench", 3.95, 4.41, 3.09, 3.06, 2.61},
        {"401.bzip2", 12.08, 11.50, 7.89, 11.22, 8.71},
        {"403.gcc", 5.42, 4.22, 3.39, 2.38, 2.07},
        {"410.bwaves", 13.01, 1.57, 4.56, 0.20, 0.17},
        {"429.mcf", 15.56, 10.68, 3.17, 7.81, 5.07},
        {"433.milc", 9.77, 1.45, 5.86, 0.15, 0.13},
        {"434.zeusmp", 9.18, 3.34, 2.13, 0.91, 0.84},
        {"435.gromacs", 7.61, 7.94, 5.06, 8.23, 5.94},
        {"444.namd", 6.77, 11.80, 7.37, 5.97, 5.71},
        {"445.gobmk", 7.01, 8.57, 5.35, 5.20, 4.44},
        {"447.dealII", 3.88, 2.20, 1.57, 1.29, 1.18},
        {"450.soplex", 10.08, 4.81, 3.14, 2.33, 1.87},
        {"453.povray", 0.29, 0.14, 0.06, 0.10, 0.06},
        {"456.hmmer", 7.30, 5.10, 1.68, 1.30, 1.19},
        {"458.sjeng", 8.09, 14.11, 8.03, 8.73, 8.24},
        {"462.libquantum", 4.72, 0.45, 0.64, 0.06, 0.05},
        {"464.h264ref", 10.31, 3.82, 2.10, 2.15, 1.66},
        {"470.lbm", 12.69, 1.00, 0.01, 0.58, 0.43},
        {"471.omnetpp", 8.35, 3.05, 1.45, 0.90, 0.47},
        {"473.astar", 10.82, 8.53, 7.54, 4.22, 4.11},
        {"482.sphinx3", 16.02, 5.01, 2.33, 2.48, 1.69},
        {"483.xalancbmk", 6.91, 3.76, 2.01, 2.67, 1.67},
    };
    return ref;
}

/** Paper Table 3 reference rows (lossless vs lossy BPA, 1G traces). */
struct Table3Ref
{
    const char *name;
    double lossless, lossy;
};

inline const std::vector<Table3Ref> &
table3Reference()
{
    static const std::vector<Table3Ref> ref = {
        {"400.perlbench", 5.08, 0.70}, {"401.bzip2", 11.37, 0.81},
        {"403.gcc", 1.39, 1.09},       {"410.bwaves", 0.19, 0.04},
        {"429.mcf", 5.57, 1.02},       {"433.milc", 0.16, 0.06},
        {"434.zeusmp", 0.98, 0.34},    {"435.gromacs", 8.27, 1.41},
        {"444.namd", 6.14, 2.26},      {"445.gobmk", 5.18, 2.17},
        {"447.dealII", 1.51, 1.30},    {"450.soplex", 4.20, 0.97},
        {"453.povray", 0.22, 0.02},    {"456.hmmer", 1.52, 0.08},
        {"458.sjeng", 9.45, 1.08},     {"462.libquantum", 0.03, 0.004},
        {"464.h264ref", 2.17, 0.26},   {"470.lbm", 0.64, 0.01},
        {"471.omnetpp", 1.08, 0.37},   {"473.astar", 3.70, 0.86},
        {"482.sphinx3", 2.54, 0.08},   {"483.xalancbmk", 3.07, 0.97},
    };
    return ref;
}

} // namespace atc::bench

#endif // ATC_BENCH_BENCH_COMMON_HPP_

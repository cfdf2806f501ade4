/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line arguments,
 * the result report, input generation, and the one adapter through
 * which every threaded container write and read goes.
 */

#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "tracer.hpp"

namespace perfbench {

/** Parsed command line (see main.cpp for the flags). */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work; ///< scratch directory for containers
};

/** What one run reports: metrics with units, plus the verdict. */
struct Report
{
    /** End-to-end metrics go into the result JSON of an untraced run,
     *  per-layer metrics into that of a traced run; notes never. */
    enum class Kind { kEndToEnd, kLayer, kNote };

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        Kind kind;
    };

    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit, Kind::kEndToEnd});
    }

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit, Kind::kLayer});
    }

    void
    note(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit, Kind::kNote});
    }

    /** Record a verification outcome; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);
};

/** Threads this machine runs at once; every phase stays within it. */
size_t hardwareThreads();

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Median of a set-up step repeated @p reps times (see setup_s). */
constexpr int kSetupReps = 3;

/** Filter-stage evidence gathered while generating inputs. */
struct FilterEvidence
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    double write_s = 0; ///< time inside FilterStage::write
};

/**
 * The input of every workload, in the paper's format: the access
 * streams of four suite models, one per behaviour class (462.libquantum
 * stream, 403.gcc unstable, 429.mcf random, 400.perlbench mixed),
 * each filtered by the paper's L1 (cache::FilterStage) down to
 * @p per_model misses, concatenated. Generator seeds derive from
 * @p seed only.
 */
std::vector<uint64_t> filteredMix(size_t per_model, uint64_t seed,
                                  Tracer &tr, FilterEvidence &ev);

/** Time split of one container write. */
struct WriteTimes
{
    double seconds = 0; ///< whole write, first record to close()
    double close_s = 0; ///< close(): the drain after the last write
    atc::core::LossyStats lossy; ///< lossy mode only
};

/**
 * The one adapter for threaded container I/O: every threaded write in
 * the benchmark goes through writeContainer and every threaded read
 * through readContainer. @p threads counts every thread busy at once:
 * the caller thread (transform, reassembly) plus threads - 1 pool
 * workers. threads == 1 is the serial AtcWriter / AtcReader.
 */
WriteTimes writeContainer(const std::string &dir,
                          const atc::core::AtcOptions &opt,
                          const std::vector<uint64_t> &data,
                          size_t threads, Tracer &tr);

/**
 * One timed repetition of a container write: write @p data through
 * writeContainer into scratch container @p dir as often as it takes to
 * pass 8M records, so that the repetition lasts about a second (shorter
 * timed sections swing with the host). Appends the close() time of
 * each write to @p close_s; returns M records/s.
 */
double writeRep(const std::string &dir, const atc::core::AtcOptions &opt,
                const std::vector<uint64_t> &data, size_t threads,
                std::vector<double> &close_s, Tracer &tr);

/** Decode the container at @p dir into @p out; returns seconds. */
double readContainer(const std::string &dir, size_t threads,
                     std::vector<uint64_t> &out, Tracer &tr);

/**
 * The per-layer metrics every workload reports from its own input and
 * container options @p opt, all traced-run only: the serial replay of
 * the lossless layers on a slice (the transform-versus-codec busy
 * split the pipelined writer hides), LossyEncoder::signatureOf over the
 * input in 100 intervals, and the threaded writer and reader at nproc
 * against one thread on the slice. @p dir is a scratch container
 * directory, removed afterwards.
 */
void reportLayerReplays(const std::vector<uint64_t> &input,
                        const atc::core::AtcOptions &opt,
                        const std::string &dir, Tracer &tr, Report &rep);

/** Total bytes of the files in container directory @p dir. */
uint64_t containerBytes(const std::string &dir);

/** Remove @p dir and everything below it. */
void removeDir(const std::string &dir);

/** The workloads (one per source file). */
void runArchive(const Args &args, Tracer &tr, Report &rep);
void runServeHot(const Args &args, Tracer &tr, Report &rep);
void runSampleScan(const Args &args, Tracer &tr, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP_

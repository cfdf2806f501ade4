/**
 * @file
 * Workload `archive`: the paper's main use (Tables 2 and 3). Four
 * suite models of different behaviour classes are filtered by the
 * paper's L1, concatenated, compressed through the threaded writer
 * into a directory container at paper lossless geometry, decoded and
 * compared; then the same again in lossy mode at paper proportions.
 * Compress, transform, lossy and parallel do almost all the work;
 * index, block cache, serve and study do none.
 */

#include <algorithm>

#include "atc/index.hpp"
#include "cache/stack_sim.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace atc;

namespace {

constexpr size_t kPerModel = 3'000'000;
// A repetition compresses and decodes the whole mix in both modes.
// At least this many, however short --seconds is, so that the medians
// rest on several samples.
constexpr int kMinReps = 4;
constexpr int kMaxReps = 12;
// Lossy write and read take ~0.5 s each against ~2 s for lossless, so
// each repetition runs them twice to give their medians as many
// samples as the short sections' noise needs.
constexpr int kLossyPerRep = 2;
// Records of the untimed warm-up.
constexpr size_t kSlice = 2'000'000;
// Random 1000-record reads timed for atc.cursor.range_ms. At paper
// geometry each one inverse-transforms a whole 1M-record buffer.
constexpr int kRangeReads = 8;
constexpr uint32_t kRangeLen = 1000;
// Miss-ratio fidelity geometry: 64 sets, 1..8 ways (as bench/matrix).
constexpr uint32_t kSets = 64, kWays = 8;
// The fidelity bound of bench/gates.json's lossy matrix cells. The
// error is a tiny, seed-dependent number (1e-7 .. 1e-4 here), so it is
// gated absolutely instead of compared as a share between runs.
constexpr double kMaxMissError = 0.05;

core::AtcOptions
losslessOptions()
{
    core::AtcOptions o;
    o.mode = core::Mode::Lossless; // paper geometry: B = 1M, bwc
    return o;
}

/** About 100 intervals, B = L/10, epsilon = 0.1 (paper proportions). */
core::AtcOptions
lossyOptions(size_t n)
{
    core::AtcOptions o;
    o.mode = core::Mode::Lossy;
    o.lossy.interval_len = n / 100;
    o.lossy.epsilon = 0.1;
    o.pipeline.buffer_addrs = o.lossy.interval_len / 10;
    return o;
}

} // namespace

void
runArchive(const Args &args, Tracer &tr, Report &rep)
{
    const size_t T = hardwareThreads();

    std::vector<uint64_t> input;
    std::vector<double> setup;
    FilterEvidence ev;
    for (int i = 0; i < kSetupReps; ++i) {
        Scope s(tr, "bench.setup");
        uint64_t t0 = nowNs();
        ev = {};
        input = filteredMix(kPerModel, args.seed, tr, ev);
        setup.push_back(since(t0));
    }
    const size_t n = input.size();
    const std::string dir_c = args.work + "/archive.c";
    const std::string dir_k = args.work + "/archive.k";
    const core::AtcOptions lossless = losslessOptions();
    const core::AtcOptions lossy = lossyOptions(n);

    // Untimed warm-up over a slice: first-touch of the pool, the
    // allocator and the page cache.
    {
        Scope s(tr, "bench.warmup");
        std::vector<uint64_t> slice(input.begin(), input.begin() + kSlice);
        std::vector<uint64_t> back;
        writeContainer(dir_c, lossless, slice, T, tr);
        readContainer(dir_c, T, back, tr);
        writeContainer(dir_k, lossyOptions(kSlice), slice, T, tr);
        readContainer(dir_k, T, back, tr);
    }

    std::vector<double> c, d, d_ms, lc, ld, close_s;
    std::vector<uint64_t> back, lossy_back;
    WriteTimes lossy_w;
    uint64_t start = nowNs();
    for (int r = 0; r < kMaxReps && (r < kMinReps || since(start) < args.seconds);
         ++r) {
        Scope s(tr, "bench.rep");
        WriteTimes w = writeContainer(dir_c, lossless, input, T, tr);
        c.push_back(double(n) / w.seconds / 1e6);
        close_s.push_back(w.close_s);
        double read_s = readContainer(dir_c, T, back, tr);
        d.push_back(double(n) / read_s / 1e6);
        d_ms.push_back(read_s * 1e3);
        rep.attempted += 2;
        rep.check(back == input, "lossless decode differs from the input");

        for (int k = 0; k < kLossyPerRep; ++k) {
            lossy_w = writeContainer(dir_k, lossy, input, T, tr);
            lc.push_back(double(n) / lossy_w.seconds / 1e6);
            ld.push_back(double(n) /
                         readContainer(dir_k, T, lossy_back, tr) / 1e6);
            rep.attempted += 2;
            rep.check(lossy_back.size() == n,
                      "lossy regeneration changed the record count");
        }
    }
    rep.note("reps", double(c.size()), "count");

    // Off the clock: sizes and fidelity.
    double bpa = double(containerBytes(dir_c)) * 8 / double(n);
    double lossy_bpa = double(containerBytes(dir_k)) * 8 / double(n);
    double miss_err = 0;
    if (lossy_back.size() == n) {
        Scope s(tr, "cache.miss_ratio_error");
        miss_err = cache::missRatioError(input, lossy_back, kSets, kWays);
    }

    // The manifest's workload-neutral names; the paper's names are
    // printed beside them.
    rep.e2e("setup_s", median(setup), "s");
    rep.e2e("write_maddrs", median(c), "Maddr/s");
    rep.e2e("read_maddrs", median(d), "Maddr/s");
    rep.e2e("read_ms", median(d_ms), "ms");
    rep.e2e("bpa", bpa, "bit/addr");
    rep.note("compress_maddrs", median(c), "Maddr/s");
    rep.note("decompress_maddrs", median(d), "Maddr/s");
    rep.note("lossy_compress_maddrs", median(lc), "Maddr/s");
    rep.note("lossy_decompress_maddrs", median(ld), "Maddr/s");
    rep.note("lossy_bpa", lossy_bpa, "bit/addr");
    rep.note("lossy_miss_error", miss_err, "ratio");
    rep.check(lossy_back.size() == n && miss_err <= kMaxMissError,
              "lossy miss-ratio error above the fidelity bound");

    rep.layer("cache.filter_maccess",
              double(ev.accesses) / ev.write_s / 1e6, "Maccess/s");
    rep.layer("cache.filter_miss_ratio",
              double(ev.misses) / double(ev.accesses), "ratio");
    rep.layer("parallel.close_s", median(close_s), "s");
    rep.note("atc.lossy.new_chunk_frac",
             double(lossy_w.lossy.chunks_created) /
                 double(std::max<uint64_t>(1, lossy_w.lossy.intervals)),
             "ratio");

    if (tr.on()) {
        std::vector<double> opens, ranges;
        for (int i = 0; i < 5; ++i) {
            Scope s(tr, "atc.index.open");
            uint64_t t0 = nowNs();
            rep.check(core::AtcIndex::open(dir_c).ok(), "index open failed");
            opens.push_back(since(t0) * 1e3);
        }
        rep.layer("atc.index.open_ms", median(opens), "ms");

        // Cold random reads at paper geometry: the cost that makes a
        // served workload need random-access geometry.
        core::IndexOptions iopt;
        iopt.cache_bytes = 0;
        auto index = core::AtcIndex::open(dir_c, iopt);
        if (!index.ok())
            throw util::Error("index: " + index.status().message());
        auto cur = index.value()->cursor();
        util::Rng rng(args.seed);
        std::vector<uint64_t> out;
        for (int i = 0; i < kRangeReads; ++i) {
            uint64_t b = rng.below(n - kRangeLen + 1);
            Scope s(tr, "atc.cursor.read_range");
            uint64_t t0 = nowNs();
            rep.check(cur->readRange(b, b + kRangeLen, out).ok() &&
                          std::equal(out.begin(), out.end(),
                                     input.begin() + b) &&
                          out.size() == kRangeLen,
                      "local readRange differs from the input");
            ranges.push_back(since(t0) * 1e3);
        }
        rep.layer("atc.cursor.range_ms", median(ranges), "ms");

        reportLayerReplays(input, lossless, args.work + "/archive.replay",
                           tr, rep);
    }
    removeDir(dir_c);
    removeDir(dir_k);
}

} // namespace perfbench

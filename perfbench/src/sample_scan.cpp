/**
 * @file
 * Workload `sample_scan`: the paper's §7 sampling study, run locally
 * by study::runSampleStudy on a pool of nproc workers over a container
 * at sampling geometry (4k-record buffers, 32k codec blocks) with the
 * decoded-block cache disabled. Codec decode, inverse transform and
 * stack simulation dominate, with zero cache hits and no protocol: it
 * uses the same decode layers as serve_hot, but cold. A cache change
 * should leave it flat; a decode-kernel change should move it.
 */

#include "atc/index.hpp"
#include "cache/stack_sim.hpp"
#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "study/sample_plan.hpp"
#include "study/sample_study.hpp"
#include "util/crc32.hpp"

namespace perfbench {

using namespace atc;

namespace {

constexpr size_t kPerModel = 2'000'000;
constexpr size_t kBuffer = 4096;
constexpr size_t kCodecBlock = 32 * 1024;
// 640 windows of 4k warm-up + 4k measured records: two thirds of the
// trace fetched per study, ~0.8 s at 4 threads, which a run repeats
// some 25 times, with a ~1 s container write every kStudiesPerWrite.
const char *const kPlan = "systematic:windows=640,len=4096,warmup=4096";
// bench/gates.json's sample_miss_error_max. Like lossy_miss_error the
// error is small and seed-dependent, so it is gated absolutely.
constexpr double kMaxStudyError = 0.08;
constexpr int kMinReps = 4;
constexpr int kMaxReps = 40;
constexpr int kStudiesPerWrite = 5;

study::StudyOptions
studyOptions(parallel::ThreadPool &pool)
{
    study::StudyOptions o;
    o.sets = {64, 256};
    o.max_ways = 8;
    o.block_shift = 0; // the filtered trace holds block addresses
    o.pool = &pool;
    return o;
}

/** study::StudyResult::windowsCrc, recomputed from direct reads. */
uint32_t
localWindowsCrc(const core::AtcIndex &index, const study::SamplePlan &plan)
{
    auto cur = index.cursor();
    std::vector<uint64_t> recs;
    util::Crc32 all;
    for (const study::SampleWindow &w : plan.windows()) {
        if (!cur->readRange(w.begin, w.end(), recs).ok())
            return 0;
        uint32_t c = util::crc32(reinterpret_cast<const uint8_t *>(recs.data()),
                                 recs.size() * sizeof(uint64_t));
        all.update(reinterpret_cast<const uint8_t *>(&c), sizeof c);
    }
    return all.value();
}

} // namespace

void
runSampleScan(const Args &args, Tracer &tr, Report &rep)
{
    const size_t T = hardwareThreads();
    const std::string dir = args.work + "/sample_scan.c";
    core::AtcOptions copt;
    copt.mode = core::Mode::Lossless;
    copt.pipeline.buffer_addrs = kBuffer;
    copt.pipeline.codec_block = kCodecBlock;
    core::IndexOptions iopt;
    iopt.cache_bytes = 0;

    std::vector<uint64_t> input;
    std::vector<double> setup;
    FilterEvidence ev;
    std::shared_ptr<const core::AtcIndex> index;
    for (int i = 0; i < kSetupReps; ++i) {
        Scope s(tr, "bench.setup");
        index.reset();
        uint64_t t0 = nowNs();
        ev = {};
        input = filteredMix(kPerModel, args.seed, tr, ev);
        writeContainer(dir, copt, input, T, tr);
        Scope so(tr, "atc.index.open");
        auto opened = core::AtcIndex::open(dir, iopt);
        if (!opened.ok())
            throw util::Error("index: " + opened.status().message());
        index = opened.take();
        setup.push_back(since(t0));
    }

    auto plan = study::SamplePlan::build(kPlan, index->size());
    if (!plan.ok())
        throw util::Error("plan: " + plan.status().message());
    parallel::ThreadPool pool(T);
    const study::StudyOptions opt = studyOptions(pool);

    auto runOnce = [&]() {
        Scope s(tr, "study.run_sample_study");
        auto r = study::runSampleStudy(index, plan.value(), opt);
        ++rep.attempted;
        if (!r.ok())
            throw util::Error("study: " + r.status().message());
        return r.take();
    };
    {
        Scope s(tr, "bench.warmup");
        runOnce();
    }
    // Timed container writes run between the studies, one every
    // kStudiesPerWrite, so that both medians span the whole run.
    std::vector<double> secs, writes, close_s;
    std::vector<uint32_t> crcs;
    study::StudyResult last;
    const std::string write_dir = args.work + "/sample_scan.write";
    uint64_t start = nowNs();
    for (int r = 0;
         r < kMaxReps && (r < kMinReps || since(start) < args.seconds); ++r) {
        if (r % kStudiesPerWrite == 0)
            writes.push_back(writeRep(write_dir, copt, input, T, close_s, tr));
        Scope s(tr, "bench.rep");
        uint64_t t0 = nowNs();
        last = runOnce();
        secs.push_back(since(t0));
        crcs.push_back(last.windowsCrc());
    }
    removeDir(write_dir);
    rep.note("reps", double(secs.size()), "count");

    // Off the clock: parity and accuracy.
    uint32_t local = localWindowsCrc(*index, plan.value());
    for (uint32_t c : crcs)
        rep.check(c == local, "windowsCrc differs from a local recomputation");
    double ref_s = 0, err = 0;
    {
        Scope s(tr, "study.run_full_reference");
        auto ref = study::runFullReference(index, opt);
        if (!ref.ok())
            throw util::Error("reference: " + ref.status().message());
        ref_s = ref.value().seconds;
        err = study::worstAbsError(last, ref.value());
    }

    double study_s = median(secs);
    // The manifest's workload-neutral names; this workload's own names are
    // printed beside them.
    rep.e2e("setup_s", median(setup), "s");
    rep.e2e("write_maddrs", median(writes), "Maddr/s");
    rep.e2e("read_maddrs",
            double(plan.value().fetchedRecords()) / study_s / 1e6,
            "Maddr/s");
    rep.e2e("read_ms", study_s * 1e3, "ms");
    rep.e2e("bpa", double(containerBytes(dir)) * 8 / double(input.size()),
            "bit/addr");
    rep.note("study_s", study_s, "s");
    rep.note("study_error", err, "ratio");
    rep.check(err <= kMaxStudyError,
              "sampled miss ratios miss the full reference");

    rep.layer("cache.filter_maccess",
              double(ev.accesses) / ev.write_s / 1e6, "Maccess/s");
    rep.layer("cache.filter_miss_ratio",
              double(ev.misses) / double(ev.accesses), "ratio");
    rep.layer("parallel.close_s", median(close_s), "s");
    rep.note("study.speedup", ref_s / study_s, "x");
    rep.note("study.decoded_frac",
             double(last.decoded_bytes) / double(input.size() * 8), "ratio");
    core::BlockCacheStats cs = index->cacheStats();
    uint64_t looks = cs.hits + cs.misses;
    rep.note("atc.cache.hit_ratio",
             looks ? double(cs.hits) / double(looks) : 0.0, "ratio");

    if (tr.on()) {
        // The study's two halves, one window at a time on one thread.
        auto cur = index->cursor();
        std::vector<uint64_t> recs;
        double fetch_s = 0, sim_s = 0;
        std::vector<double> ranges;
        for (const study::SampleWindow &w : plan.value().windows()) {
            uint64_t t0 = nowNs();
            {
                Scope s(tr, "atc.cursor.read_range");
                rep.check(cur->readRange(w.begin, w.end(), recs).ok(),
                          "window read failed");
            }
            ranges.push_back(since(t0) * 1e3);
            fetch_s += since(t0);
            t0 = nowNs();
            Scope s(tr, "cache.stack_sim");
            for (uint32_t sets : opt.sets) {
                cache::StackSimulator sim(sets, opt.max_ways);
                sim.setWarmup(true);
                for (size_t i = 0; i < recs.size(); ++i) {
                    if (i == w.warmup)
                        sim.setWarmup(false);
                    sim.access(recs[i]);
                }
            }
            sim_s += since(t0);
        }
        rep.layer("atc.cursor.range_ms", median(ranges), "ms");
        rep.note("study.fetch_s", fetch_s, "s");
        rep.note("study.sim_s", sim_s, "s");

        std::vector<double> opens;
        for (int i = 0; i < 5; ++i) {
            Scope s(tr, "atc.index.open");
            uint64_t t0 = nowNs();
            rep.check(core::AtcIndex::open(dir, iopt).ok(),
                      "index open failed");
            opens.push_back(since(t0) * 1e3);
        }
        rep.layer("atc.index.open_ms", median(opens), "ms");

        reportLayerReplays(input, copt, args.work + "/sample_scan.replay", tr,
                           rep);
    }
    index.reset();
    removeDir(dir);
}

} // namespace perfbench

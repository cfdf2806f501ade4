/**
 * @file
 * Parallel compression/decompression throughput sweep, plus the
 * random-access sweep over the same container.
 *
 * Compresses one synthetic-generator corpus with AtcWriter/AtcReader
 * on increasing worker counts, and reports wall-clock throughput plus
 * speedup over one thread, as JSON (for the CI perf-trajectory
 * artifact) and as a human-readable table on stderr. Containers are
 * byte-identical across thread counts — the sweep asserts it. The
 * lossless compress and decompress rows, whose speedups CI gates, are
 * each the median of 5 rounds that run every thread count in turn.
 *
 * One thread-count rule: a writer's or reader's caller runs queued
 * pool tasks while it waits, so it counts as one of the threads — t
 * threads are t - 1 pool workers plus the caller, and t = 1 is the
 * serial, pool-less path. Every speedup is thus over serial. The
 * served and sampled rows, whose callers only wait, run t workers.
 *
 * The random-access rows exercise the AtcIndex/AtcCursor API on the
 * lossless container: `random_seek` measures seek + short-read
 * latency at scattered offsets (reported as records/s over the reads;
 * first-touch cost is the containing-frame decode, repeats hit the
 * index's shared decoded-block cache), `seek_hot` revisits a small
 * cache-resident working set (steady state decodes nothing — the
 * shared-cache headline), and `ranged_decode` measures readRange()
 * throughput over scattered 5% slices with the frame decodes fanned
 * out on the pool (this one should scale).
 *
 * `serve_latency` drives the whole serving stack: a TraceServer with
 * the sweep's thread count as its worker pool, flooded by
 * ATC_BENCH_SERVE_CLIENTS (default 64) concurrent TCP clients that
 * alternate SEEK and READ_RANGE requests of 1000 records. The row
 * reports aggregate served records/s plus per-request p50/p99 latency
 * (extra JSON fields), and every served payload is audited
 * byte-identical against a direct AtcCursor::readRange.
 *
 * Usage: parallel_throughput [addresses] [threads-csv] [json-path]
 *   addresses   corpus length (default 2000000, scaled by
 *               ATC_BENCH_SCALE)
 *   threads-csv thread counts to sweep (default "1,2,4,8")
 *   json-path   output file (default parallel_throughput.json)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "study/sample_plan.hpp"
#include "study/sample_study.hpp"
#include "trace/pipeline.hpp"
#include "util/rng.hpp"

namespace {

// Monotonic timing comes from bench_common (bench::Clock,
// bench::seconds) so every harness measures the same way.
using atc::bench::Clock;
using atc::bench::seconds;

std::vector<size_t>
parseThreadList(const char *csv)
{
    std::vector<size_t> out;
    const char *p = csv;
    while (*p) {
        char *end = nullptr;
        size_t v = std::strtoull(p, &end, 10);
        if (end == p)
            break;
        if (v > 0)
            out.push_back(v);
        p = (*end == ',') ? end + 1 : end;
    }
    if (out.empty())
        out = {1, 2, 4, 8};
    return out;
}

/**
 * Per-stage CPU-time breakdown of one timed section, from the delta of
 * two obs registry snapshots. Values are summed across worker threads
 * (CPU-seconds, not wall-clock), so a 4-thread row's codec_s may
 * exceed its seconds — the ratio is the stage's effective parallelism.
 * transform_s and codec_s sum leaf timers only: a timer that wraps
 * them (lossy.chunk_compress_us, lossy.chunk_decode_us) would count
 * their time twice.
 */
struct Stages
{
    bool present = false; ///< false when observability is off
    double transform_s = 0;   ///< bytesort/delta transform compute
    double codec_s = 0;       ///< BWT + MTF/RLE + entropy leaf stages
    double io_s = 0;          ///< FileSource/FileSink transfer time
    double queue_wait_s = 0;  ///< channel + pool queue waits
    double worker_busy_s = 0; ///< pool task execution time
};

Stages
stageDelta(const atc::obs::Snapshot &before,
           const atc::obs::Snapshot &after)
{
    auto cd = [&](const char *key) {
        return double(after.value(key) - before.value(key)) / 1e6;
    };
    auto hd = [&](const char *key) {
        return double(after.histSum(key) - before.histSum(key)) / 1e6;
    };
    Stages s;
    s.present = atc::obs::enabled();
    if (!s.present)
        return s;
    s.transform_s =
        cd("atc.transform.encode_us") + cd("atc.transform.decode_us");
    s.codec_s = cd("codec.encode.bwt_us") +
                cd("codec.encode.mtf_rle_us") +
                cd("codec.encode.entropy_us") +
                cd("codec.decode.bwt_us") +
                cd("codec.decode.entropy_us");
    s.io_s = cd("io.read_us") + cd("io.write_us");
    s.queue_wait_s = hd("channel.push_wait_us") +
                     hd("channel.pop_wait_us") +
                     hd("pool.queue_wait_us");
    s.worker_busy_s = cd("pool.worker_busy_us");
    return s;
}

/** Add @p s, weighted by @p w, to @p into. */
void
accumulate(Stages &into, const Stages &s, double w)
{
    into.present = s.present;
    into.transform_s += w * s.transform_s;
    into.codec_s += w * s.codec_s;
    into.io_s += w * s.io_s;
    into.queue_wait_s += w * s.queue_wait_s;
    into.worker_busy_s += w * s.worker_busy_s;
}

double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/** Whether two stores hold the same container, byte for byte. */
bool
sameStore(const atc::core::MemoryStore &a, const atc::core::MemoryStore &b)
{
    if (a.chunkCount() != b.chunkCount() || a.infoBytes() != b.infoBytes())
        return false;
    for (uint32_t id = 0; id < a.chunkCount(); ++id) {
        if (a.chunkBytes(id) != b.chunkBytes(id))
            return false;
    }
    return true;
}

struct Row
{
    std::string mode;
    size_t threads;
    double secs;
    double maddrs;
    double speedup;
    /** serve_latency only: per-request latency percentiles. */
    double p50_ms = 0;
    double p99_ms = 0;
    /** compress/decompress rows: per-stage time breakdown. */
    Stages stages;
    /** obs_overhead only: metrics-off throughput and the relative
     *  cost of leaving metrics on (positive = slowdown). */
    double off_maddrs = 0;
    double overhead_pct = 0;
    bool has_overhead = false;
    /** sample_study only: decoded bytes of the sampled run over the
     *  full reference pass (-1 when observability is off) and the
     *  worst absolute sampled-vs-reference miss-ratio error. */
    double decoded_frac = -1;
    double miss_ratio_error = 0;
    bool has_sample = false;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace atc;

    size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                        : bench::scaledLen(2'000'000);
    std::vector<size_t> threads =
        parseThreadList(argc > 2 ? argv[2] : "1,2,4,8");
    std::string json_path =
        argc > 3 ? argv[3] : "parallel_throughput.json";

    // Synthetic generator corpus (no cache filter: the sweep measures
    // the compressor, not the workload model).
    const trace::SyntheticBenchmark &bm =
        trace::benchmarkByName("429.mcf");
    std::vector<uint64_t> corpus;
    corpus.reserve(n);
    {
        trace::GeneratorPtr gen = bm.makeData(1);
        trace::GeneratorSource src(*gen, n);
        trace::VectorTraceSink sink(corpus);
        trace::pump(src, sink);
    }
    std::fprintf(stderr,
                 "corpus: %zu addresses (%s), sweeping threads:", n,
                 bm.name.c_str());
    for (size_t t : threads)
        std::fprintf(stderr, " %zu", t);
    std::fprintf(stderr, "\n");

    core::AtcOptions lossy_opt;
    lossy_opt.mode = core::Mode::Lossy;
    lossy_opt.lossy.interval_len = n / 32 + 1;
    lossy_opt.lossy.epsilon = 0.0; // all chunks: maximum codec work
    lossy_opt.pipeline.buffer_addrs = n / 64 + 1;

    core::AtcOptions lossless_opt;
    lossless_opt.mode = core::Mode::Lossless;
    lossless_opt.pipeline.buffer_addrs = n / 16 + 1;
    lossless_opt.pipeline.codec_block = 256 * 1024;

    std::vector<Row> rows;
    auto &registry = obs::Registry::global();

    // The two speedup-gated modes, lossless compress and decompress:
    // each thread count's row is the median of kRounds timed runs, and
    // each round runs every thread count once, so that load on a shared
    // machine that comes and goes falls on every row alike and a gate
    // reads the code, not the noise of one 1-thread run. Each row's
    // stage breakdown is the mean over its rounds.
    constexpr size_t kRounds = 5;
    const size_t counts = threads.size();
    std::vector<std::vector<double>> write_s(counts), read_s(counts);
    std::vector<Stages> write_st(counts), read_st(counts);
    core::MemoryStore lossless_ref; // first thread count's container
    for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < counts; ++i) {
            // Pool workers besides the caller (see the file comment).
            const size_t workers = threads[i] - 1;
            core::MemoryStore store;
            auto snap0 = registry.snapshot();
            auto t0 = Clock::now();
            {
                core::AtcWriter w(store, lossless_opt, workers);
                w.write(corpus.data(), corpus.size());
                w.close();
            }
            write_s[i].push_back(seconds(t0, Clock::now()));
            accumulate(write_st[i], stageDelta(snap0, registry.snapshot()),
                       1.0 / kRounds);
            if (round == 0 && i == 0) {
                lossless_ref = std::move(store);
            } else if (!sameStore(lossless_ref, store)) {
                std::fprintf(stderr,
                             "FATAL: lossless container differs at %zu "
                             "threads\n",
                             threads[i]);
                return 1;
            }

            // Seekable frames let the reader decode blocks in the pool,
            // so this is where decode throughput must scale with the
            // thread count.
            snap0 = registry.snapshot();
            t0 = Clock::now();
            {
                core::AtcReader r(lossless_ref,
                                  core::kDefaultDecodedCacheBytes, workers);
                uint64_t buf[65536];
                while (r.read(buf, 65536) != 0) {
                }
            }
            read_s[i].push_back(seconds(t0, Clock::now()));
            accumulate(read_st[i], stageDelta(snap0, registry.snapshot()),
                       1.0 / kRounds);
        }
    }
    for (size_t i = 0; i < counts; ++i) {
        const double w = median(write_s[i]), r = median(read_s[i]);
        rows.push_back({"lossless_compress", threads[i], w,
                        static_cast<double>(n) / w / 1e6,
                        median(write_s[0]) / w});
        rows.back().stages = write_st[i];
        rows.push_back({"lossless_decompress", threads[i], r,
                        static_cast<double>(n) / r / 1e6,
                        median(read_s[0]) / r});
        rows.back().stages = read_st[i];
        std::fprintf(stderr,
                     "  %zu thread(s): lossless %.2fs, lossless decode "
                     "%.2fs (medians of %zu interleaved rounds)\n",
                     threads[i], w, r, kRounds);
    }

    double base_lossy = 0, base_read = 0;
    double base_seek = 0, base_hot = 0;
    double base_ranged = 0, base_serve = 0;
    core::MemoryStore reference; // first thread count's lossy container

    for (size_t t : threads) {
        // Pool workers besides the caller (see the file comment).
        const size_t workers = t - 1;

        // Lossy compression sweep.
        core::MemoryStore lossy_store;
        auto snap0 = registry.snapshot();
        auto t0 = Clock::now();
        {
            core::AtcWriter w(lossy_store, lossy_opt, workers);
            w.write(corpus.data(), corpus.size());
            w.close();
        }
        double s = seconds(t0, Clock::now());
        if (base_lossy == 0)
            base_lossy = s;
        rows.push_back({"lossy_compress", t, s,
                        static_cast<double>(n) / s / 1e6,
                        base_lossy / s});
        rows.back().stages = stageDelta(snap0, registry.snapshot());

        // Byte identity across thread counts, checked in passing.
        if (t == threads.front()) {
            reference = std::move(lossy_store);
        } else if (!sameStore(reference, lossy_store)) {
            std::fprintf(stderr, "FATAL: container differs at %zu threads\n",
                         t);
            return 1;
        }

        // Lossy decompression sweep (prefetching reader).
        snap0 = registry.snapshot();
        t0 = Clock::now();
        {
            core::AtcReader r(reference, core::kDefaultDecodedCacheBytes,
                              workers);
            uint64_t buf[65536];
            while (r.read(buf, 65536) != 0) {
            }
        }
        s = seconds(t0, Clock::now());
        if (base_read == 0)
            base_read = s;
        rows.push_back({"lossy_decompress", t, s,
                        static_cast<double>(n) / s / 1e6,
                        base_read / s});
        rows.back().stages = stageDelta(snap0, registry.snapshot());

        // Random-access sweep over the lossless container, via the
        // shared index + cursor API (no streaming reader in the way).
        auto index = core::AtcIndex::openOrThrow(lossless_ref);
        std::shared_ptr<parallel::ThreadPool> pool;
        if (workers > 0)
            pool = std::make_shared<parallel::ThreadPool>(workers);
        auto cursor = std::make_unique<core::AtcCursor>(index, pool);

        // Seek latency: scattered seeks, 1000-record read each.
        constexpr size_t kSeeks = 48;
        constexpr size_t kSeekRead = 1000;
        util::Rng rng(4242);
        std::vector<uint64_t> buf(kSeekRead);
        t0 = Clock::now();
        for (size_t i = 0; i < kSeeks; ++i) {
            uint64_t off = rng.below(n - kSeekRead);
            if (!cursor->seek(off).ok() ||
                cursor->read(buf.data(), kSeekRead) != kSeekRead) {
                std::fprintf(stderr, "FATAL: seek sweep failed\n");
                return 1;
            }
        }
        s = seconds(t0, Clock::now());
        if (base_seek == 0)
            base_seek = s;
        rows.push_back({"random_seek", t, s,
                        static_cast<double>(kSeeks * kSeekRead) / s / 1e6,
                        base_seek / s});

        // Hot-seek latency: revisit a small working set of offsets
        // whose covering frames fit the index's shared decoded-block
        // cache — after the first round every seek should decode
        // nothing (asserted by test via the decode-counting codec) and
        // the number reflects pure locate+copy cost.
        constexpr size_t kHotOffsets = 8;
        constexpr size_t kHotRounds = 12;
        uint64_t hot[kHotOffsets];
        for (size_t i = 0; i < kHotOffsets; ++i)
            hot[i] = rng.below(n - kSeekRead);
        t0 = Clock::now();
        for (size_t round = 0; round < kHotRounds; ++round) {
            for (size_t i = 0; i < kHotOffsets; ++i) {
                if (!cursor->seek(hot[i]).ok() ||
                    cursor->read(buf.data(), kSeekRead) != kSeekRead) {
                    std::fprintf(stderr, "FATAL: hot-seek sweep failed\n");
                    return 1;
                }
            }
        }
        s = seconds(t0, Clock::now());
        if (base_hot == 0)
            base_hot = s;
        rows.push_back(
            {"seek_hot", t, s,
             static_cast<double>(kHotRounds * kHotOffsets * kSeekRead) /
                 s / 1e6,
             base_hot / s});

        // Ranged decode: scattered 5% slices through readRange().
        constexpr size_t kRanges = 8;
        uint64_t slice = n / 20;
        std::vector<uint64_t> out;
        uint64_t ranged_total = 0;
        t0 = Clock::now();
        for (size_t k = 0; k < kRanges; ++k) {
            uint64_t begin = (2 * k + 1) * (n - slice) / (2 * kRanges);
            auto status = cursor->readRange(begin, begin + slice, out);
            if (!status.ok() || out.size() != slice) {
                std::fprintf(stderr, "FATAL: ranged sweep failed: %s\n",
                             status.message().c_str());
                return 1;
            }
            ranged_total += out.size();
        }
        s = seconds(t0, Clock::now());
        if (base_ranged == 0)
            base_ranged = s;
        rows.push_back({"ranged_decode", t, s,
                        static_cast<double>(ranged_total) / s / 1e6,
                        base_ranged / s});

        // Served random access: a TraceServer with t workers over the
        // same lossless container, flooded by concurrent TCP clients
        // alternating SEEK and READ_RANGE requests. Reported as
        // aggregate records/s plus per-request p50/p99 latency; every
        // served payload is then verified byte-identical to a direct
        // AtcCursor::readRange (after the clock stops).
        const char *env_clients = std::getenv("ATC_BENCH_SERVE_CLIENTS");
        const size_t kClients =
            env_clients ? std::strtoull(env_clients, nullptr, 10) : 64;
        constexpr size_t kReqPerClient = 24;
        constexpr uint64_t kReqRecords = 1000;

        serve::ServeOptions sopt;
        sopt.threads = t;
        serve::TraceServer server(sopt);
        if (!server.addContainer("bench", lossless_ref).ok() ||
            !server.start().ok()) {
            std::fprintf(stderr, "FATAL: serve sweep: server start\n");
            return 1;
        }

        struct ClientResult
        {
            std::vector<double> lat_ms;
            std::vector<std::pair<uint64_t, std::vector<uint64_t>>>
                payloads; // begin -> served records
            bool ok = false;
        };
        std::vector<ClientResult> results(kClients);
        std::vector<std::thread> client_threads;
        client_threads.reserve(kClients);
        t0 = Clock::now();
        for (size_t c = 0; c < kClients; ++c) {
            client_threads.emplace_back([&, c] {
                ClientResult &res = results[c];
                auto conn = serve::ServeClient::connect("127.0.0.1",
                                                        server.port());
                if (!conn.ok())
                    return;
                serve::ServeClient client = conn.take();
                auto remote = client.open("bench");
                if (!remote.ok())
                    return;
                uint32_t handle = remote.value().handle;
                for (size_t i = 0; i < kReqPerClient; ++i) {
                    uint64_t begin = (c * 7919 + i * 104729) %
                                     (n - kReqRecords);
                    std::vector<uint64_t> got;
                    auto q0 = Clock::now();
                    util::Status st =
                        (i & 1) ? client.seekRead(handle, begin,
                                                  uint32_t(kReqRecords),
                                                  got)
                                : client.readRange(handle, begin,
                                                   begin + kReqRecords,
                                                   got);
                    auto q1 = Clock::now();
                    if (!st.ok() || got.size() != kReqRecords)
                        return;
                    res.lat_ms.push_back(
                        std::chrono::duration<double, std::milli>(q1 -
                                                                  q0)
                            .count());
                    res.payloads.emplace_back(begin, std::move(got));
                }
                res.ok = true;
            });
        }
        for (auto &th : client_threads)
            th.join();
        s = seconds(t0, Clock::now());
        server.stop();

        std::vector<double> lat;
        for (const ClientResult &res : results) {
            if (!res.ok) {
                std::fprintf(stderr, "FATAL: serve sweep: a client "
                                     "failed\n");
                return 1;
            }
            lat.insert(lat.end(), res.lat_ms.begin(), res.lat_ms.end());
        }
        // Byte-parity audit, off the clock: lossless seeks are exact,
        // so both request flavours must equal the direct range read.
        {
            auto audit = index->cursor();
            for (const ClientResult &res : results) {
                for (const auto &[begin, got] : res.payloads) {
                    std::vector<uint64_t> want;
                    if (!audit->readRange(begin, begin + kReqRecords,
                                          want)
                             .ok() ||
                        want != got) {
                        std::fprintf(stderr,
                                     "FATAL: served records diverge "
                                     "from direct read at %llu\n",
                                     static_cast<unsigned long long>(
                                         begin));
                        return 1;
                    }
                }
            }
        }
        std::sort(lat.begin(), lat.end());
        if (base_serve == 0)
            base_serve = s;
        Row serve_row{"serve_latency", t, s,
                      static_cast<double>(kClients * kReqPerClient *
                                          kReqRecords) /
                          s / 1e6,
                      base_serve / s};
        serve_row.p50_ms = lat[lat.size() / 2];
        serve_row.p99_ms = lat[(lat.size() * 99) / 100];
        rows.push_back(serve_row);

        std::fprintf(stderr,
                     "  %zu thread(s): lossy %.2fs, decode %.2fs, "
                     "seek %.2fs, hot seek %.2fs, ranged %.2fs, "
                     "serve %.2fs (p50 %.2fms, p99 %.2fms, "
                     "%zu clients)\n",
                     t, rows[rows.size() - 6].secs,
                     rows[rows.size() - 5].secs,
                     rows[rows.size() - 4].secs,
                     rows[rows.size() - 3].secs,
                     rows[rows.size() - 2].secs,
                     rows[rows.size() - 1].secs,
                     rows[rows.size() - 1].p50_ms,
                     rows[rows.size() - 1].p99_ms, kClients);
    }

    // obs_overhead: what the metrics layer costs the gated hot path, a
    // serial lossless read with per-frame and per-buffer record sites
    // live. On a shared VM the on/off difference of timed reads is
    // below the reads' own jitter (one binary gave -2.9% to 4.8%), so
    // the cost is measured directly: the record operations one serial
    // read performs with metrics on (obs::threadTally(): clock reads,
    // counter adds, histogram records), times each one's unit cost
    // timed in a tight loop, over the metrics-off read's time.
    // check_regression.py gates that overhead_pct at 3%. The row's
    // metrics-on and -off throughputs are the medians of 15
    // interleaved on/off pairs of reads, each timed in the reading
    // thread's CPU time.
    {
        auto decodeOnce = [&]() {
            double t0 = bench::threadCpuSeconds();
            core::AtcReader r(lossless_ref,
                              core::kDefaultDecodedCacheBytes, 0);
            uint64_t buf[65536];
            while (r.read(buf, 65536) != 0) {
            }
            return bench::threadCpuSeconds() - t0;
        };
        decodeOnce(); // warm up (page cache, pool, registry handles)
        constexpr size_t kPairs = 15;
        std::vector<double> on(kPairs), off(kPairs);
        for (size_t i = 0; i < kPairs; ++i) {
            obs::setEnabled(true);
            on[i] = decodeOnce();
            obs::setEnabled(false);
            off[i] = decodeOnce();
        }
        obs::setEnabled(true);
        const double on_s = median(on), off_s = median(off);

        const obs::RecordTally t0 = obs::threadTally();
        decodeOnce();
        const obs::RecordTally t1 = obs::threadTally();
        const double clock_reads = double(t1.clock_reads - t0.clock_reads);
        const double adds = double(t1.adds - t0.adds);
        const double records = double(t1.records - t0.records);

        // Unit costs on a registry of their own: the median of 5 loops
        // of 2^20 operations each.
        obs::Registry unit_registry;
        obs::Counter &counter = unit_registry.counter("unit");
        obs::Histogram &histogram = unit_registry.histogram("unit");
        auto unitCost = [](auto &&op) {
            constexpr int kOps = 1 << 20;
            std::vector<double> loops(5);
            for (double &loop : loops) {
                double c0 = bench::threadCpuSeconds();
                for (int i = 0; i < kOps; ++i)
                    op(i);
                loop = (bench::threadCpuSeconds() - c0) / kOps;
            }
            return median(loops);
        };
        volatile uint64_t stamps = 0;
        const double clock_s =
            unitCost([&](int) { stamps = stamps + obs::nowNs(); });
        const double add_s = unitCost([&](int i) { counter.add(i); });
        const double record_s =
            unitCost([&](int i) { histogram.record(uint64_t(i)); });
        const double cost_s =
            clock_reads * clock_s + adds * add_s + records * record_s;

        Row overhead{"obs_overhead", 1, on_s,
                     static_cast<double>(n) / on_s / 1e6, 1.0};
        overhead.off_maddrs = static_cast<double>(n) / off_s / 1e6;
        overhead.overhead_pct = cost_s / off_s * 100.0;
        overhead.has_overhead = true;
        rows.push_back(overhead);
        std::fprintf(stderr,
                     "  obs_overhead: %.0f clock reads x %.1f ns, %.0f "
                     "adds x %.1f ns, %.0f records x %.1f ns = %.1f us "
                     "of a %.3f s read (%.4f%%); metrics on %.3f, off "
                     "%.3f Maddrs/s\n",
                     clock_reads, clock_s * 1e9, adds, add_s * 1e9,
                     records, record_s * 1e9, cost_s * 1e6, off_s,
                     overhead.overhead_pct, overhead.maddrs,
                     overhead.off_maddrs);
    }

    // sample_study: the sampling engine end-to-end — scattered windows
    // over a dedicated small-frame container (4k-record transform
    // buffers and 32k codec blocks: the transform buffer is the
    // lossless random-access decode granule, so it must stay near the
    // window length or every window decodes far more than it
    // measures), merged estimate vs the full-trace reference. Gated on
    // throughput ratio like every mode, plus two absolute gates:
    // decoded_frac (sampling must decode a small fraction of what the
    // full pass decodes) and miss_ratio_error (the estimate must stay
    // honest). Runs at the sweep's top thread count.
    {
        size_t t = threads.back();
        core::AtcOptions sample_copt;
        sample_copt.mode = core::Mode::Lossless;
        sample_copt.pipeline.buffer_addrs = 4096;
        sample_copt.pipeline.codec_block = 32 * 1024;
        core::MemoryStore sample_store;
        {
            core::AtcWriter w(sample_store, sample_copt, t - 1);
            w.write(corpus.data(), corpus.size());
            w.close();
        }
        // No decoded-block cache: the byte counters must reflect what
        // each pass truly decodes, not what the other left behind.
        core::IndexOptions iopt;
        iopt.cache_bytes = 0;
        auto index = core::AtcIndex::openOrThrow(sample_store, iopt);

        char plan_spec[128];
        std::snprintf(plan_spec, sizeof plan_spec,
                      "systematic:windows=8,len=%zu,warmup=%zu",
                      n / 1000, n / 4000);
        auto plan = study::SamplePlan::build(plan_spec, index->size());
        if (!plan.ok()) {
            std::fprintf(stderr, "FATAL: sample plan: %s\n",
                         plan.status().message().c_str());
            return 1;
        }
        study::StudyOptions sopt2;
        sopt2.sets = {64, 1024};
        sopt2.threads = t;
        auto sampled = study::runSampleStudy(index, plan.value(), sopt2);
        auto reference = study::runFullReference(index, sopt2);
        if (!sampled.ok() || !reference.ok()) {
            std::fprintf(stderr, "FATAL: sample study failed: %s\n",
                         (!sampled.ok() ? sampled.status()
                                        : reference.status())
                             .message()
                             .c_str());
            return 1;
        }
        const study::StudyResult &sr = sampled.value();
        const study::ReferenceResult &rr = reference.value();

        Row srow{"sample_study", t, sr.seconds,
                 static_cast<double>(sr.fetched_records) / sr.seconds /
                     1e6,
                 sr.seconds > 0 ? rr.seconds / sr.seconds : 0.0};
        if (sr.decoded_bytes >= 0 && rr.decoded_bytes > 0)
            srow.decoded_frac = static_cast<double>(sr.decoded_bytes) /
                                static_cast<double>(rr.decoded_bytes);
        srow.miss_ratio_error = study::worstAbsError(sr, rr);
        srow.has_sample = true;
        rows.push_back(srow);
        std::fprintf(stderr,
                     "  sample_study: %zu windows (%s), %.3fs vs "
                     "reference %.3fs (%.1fx), decoded frac %.4f, "
                     "worst miss-ratio error %.5f\n",
                     sr.windows.size(), sr.plan.c_str(), sr.seconds,
                     rr.seconds, srow.speedup, srow.decoded_frac,
                     srow.miss_ratio_error);
    }

    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"parallel_throughput\",\n"
                 "  \"corpus\": \"%s\",\n  \"addresses\": %zu,\n"
                 "  \"codec\": \"bwc\",\n  \"cores\": %u,\n"
                 "  \"results\": [\n",
                 bm.name.c_str(), n, std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(json,
                     "    {\"mode\": \"%s\", \"threads\": %zu, "
                     "\"seconds\": %.4f, \"maddrs_per_s\": %.3f, "
                     "\"speedup\": %.3f",
                     r.mode.c_str(), r.threads, r.secs, r.maddrs,
                     r.speedup);
        if (r.mode == "serve_latency")
            std::fprintf(json,
                         ", \"p50_ms\": %.3f, \"p99_ms\": %.3f",
                         r.p50_ms, r.p99_ms);
        if (r.stages.present)
            std::fprintf(json,
                         ", \"stages\": {\"transform_s\": %.4f, "
                         "\"codec_s\": %.4f, \"io_s\": %.4f, "
                         "\"queue_wait_s\": %.4f, "
                         "\"worker_busy_s\": %.4f}",
                         r.stages.transform_s, r.stages.codec_s,
                         r.stages.io_s, r.stages.queue_wait_s,
                         r.stages.worker_busy_s);
        if (r.has_overhead)
            std::fprintf(json,
                         ", \"off_maddrs_per_s\": %.3f, "
                         "\"overhead_pct\": %.2f",
                         r.off_maddrs, r.overhead_pct);
        if (r.has_sample)
            std::fprintf(json,
                         ", \"decoded_frac\": %.4f, "
                         "\"miss_ratio_error\": %.5f",
                         r.decoded_frac, r.miss_ratio_error);
        std::fprintf(json, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());

    // Full registry snapshot next to the bench JSON — the CI perf job
    // uploads both, so stage-level drift is diagnosable from the
    // artifact alone (see docs/metrics.md).
    std::string metrics_path = json_path + ".metrics.json";
    if (!obs::writeMetricsJson(metrics_path)) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
    return 0;
}

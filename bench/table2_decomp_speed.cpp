/**
 * @file
 * Regenerates Table 2: decompression wall-clock time and throughput
 * for the TCgen baseline and the two bytesort configurations, plus the
 * share contributed by the byte-level codec stage.
 *
 * The paper decompressed 22 traces of 100M addresses on a 2004
 * Pentium 4; we time scaled traces on the host. The reproducible
 * claims are relative: bytesort decompresses faster than TCgen, and
 * the byte-level codec dominates decompression time (~50% for TCgen,
 * ~65% for bytesort).
 *
 * Additionally times the batch read(out, n) hot path against the
 * value-at-a-time decode() wrapper on the bytesort configurations, to
 * quantify the win of span-based decompression.
 */

#include "bench_common.hpp"

// Monotonic timing comes from bench_common (bench::Clock,
// bench::seconds) so every harness measures the same way.
using atc::bench::Clock;
using atc::bench::seconds;

int
main()
{
    using namespace atc;
    using namespace atc::bench;

    const size_t len = scaledLen(500'000);
    tcg::TcgenConfig tcfg;
    tcfg.log2_lines = 18;

    // A cross-class subset keeps the run affordable; scale up with
    // ATC_BENCH_SCALE for the full-suite measurement.
    const std::vector<std::string> names = {
        "410.bwaves", "429.mcf", "403.gcc",    "453.povray",
        "456.hmmer",  "470.lbm", "483.xalancbmk",
    };

    double total[3] = {};       // decompression seconds per method
    double codec_share[3] = {}; // byte-codec-only seconds per method
    double batch_total[2] = {}; // bytesort decode via batch read()
    uint64_t addresses = 0;

    for (const std::string &name : names) {
        auto trace = trace::collectFilteredTrace(
            trace::benchmarkByName(name), len, 1);
        addresses += trace.size();

        // --- TCgen ---
        auto tc = tcg::tcgenCompress(trace, tcfg);
        auto t0 = Clock::now();
        {
            util::MemorySource code_src(tc.code_bytes);
            util::MemorySource data_src(tc.data_bytes);
            tcg::TcgenDecoder dec(tcfg, code_src, data_src);
            uint64_t v;
            while (dec.decode(&v))
                ;
        }
        auto t1 = Clock::now();
        // Codec-only share: decompress the two byte streams alone.
        {
            const auto &codec = comp::codecByName("bwc");
            comp::decompressAll(codec, tc.code_bytes.data(),
                                tc.code_bytes.size());
            comp::decompressAll(codec, tc.data_bytes.data(),
                                tc.data_bytes.size());
        }
        auto t2 = Clock::now();
        total[0] += seconds(t0, t1);
        codec_share[0] += seconds(t1, t2);

        // --- bytesort small (len/100) and big (len/10) ---
        const size_t buffers[2] = {len / 100, len / 10};
        for (int b = 0; b < 2; ++b) {
            core::MemoryStore store;
            core::AtcOptions opt;
            opt.mode = core::Mode::Lossless;
            opt.pipeline.buffer_addrs = buffers[b];
            {
                core::AtcWriter writer(store, opt);
                writer.write(trace.data(), trace.size());
                writer.close();
            }

            auto s0 = Clock::now();
            {
                // Value-at-a-time decode(), the original hot path.
                core::AtcReader reader(store);
                uint64_t v;
                while (reader.decode(&v))
                    ;
            }
            auto s1 = Clock::now();
            {
                // Codec-only share: every frame of the chunk, decoded
                // with no inverse transform.
                const auto &chunk = store.chunkBytes(0);
                comp::decompressAll(comp::codecByName("bwc"), chunk.data(),
                                    chunk.size());
            }
            auto s2 = Clock::now();
            {
                // Batch read(), the new primary entry point.
                core::AtcReader reader(store);
                std::vector<uint64_t> buf(1 << 16);
                while (reader.read(buf.data(), buf.size()) != 0)
                    ;
            }
            auto s3 = Clock::now();
            total[1 + b] += seconds(s0, s1);
            codec_share[1 + b] += seconds(s1, s2);
            batch_total[b] += seconds(s2, s3);
        }
        std::printf("  [%s done]\n", name.c_str());
        std::fflush(stdout);
    }

    std::printf("\nTable 2 — decompression of %llu addresses "
                "(paper: 2.2G addresses on a 3 GHz Pentium 4)\n",
                static_cast<unsigned long long>(addresses));
    std::printf("%-22s %12s %12s %12s\n", "", "TCgen", "bytesort-sm",
                "bytesort-big");
    std::printf("%-22s %12.2f %12.2f %12.2f   (paper: 1202 / 856 / 948)\n",
                "total time (sec)", total[0], total[1], total[2]);
    std::printf("%-22s %12.2f %12.2f %12.2f   (paper: 589 / 545 / 615)\n",
                "codec contrib. (sec)", codec_share[0], codec_share[1],
                codec_share[2]);
    std::printf("%-22s %12.2f %12.2f %12.2f   (paper: 1.83 / 2.57 / "
                "2.32)\n",
                "addr/second (x1e6)", addresses / total[0] / 1e6,
                addresses / total[1] / 1e6, addresses / total[2] / 1e6);
    // --- lossy regeneration: per-value vs batch -------------------
    // Figure 8's scenario: random values, every interval imitates the
    // first chunk, so regeneration is translation + copy — the regime
    // where the per-value call overhead, not the codec, is the cost.
    double lossy_single = 0, lossy_batch = 0;
    size_t lossy_n = scaledLen(4'000'000);
    {
        core::MemoryStore store;
        core::AtcOptions opt;
        opt.mode = core::Mode::Lossy;
        opt.lossy.interval_len = lossy_n / 10;
        opt.pipeline.buffer_addrs = lossy_n / 100;
        util::Rng rng(2009);
        core::AtcWriter writer(store, opt);
        std::vector<uint64_t> fill(1 << 16);
        for (size_t done = 0; done < lossy_n;) {
            size_t take = std::min(fill.size(), lossy_n - done);
            for (size_t i = 0; i < take; ++i)
                fill[i] = rng.next();
            writer.write(fill.data(), take);
            done += take;
        }
        writer.close();

        auto u0 = Clock::now();
        {
            core::AtcReader reader(store);
            uint64_t v;
            while (reader.decode(&v))
                ;
        }
        auto u1 = Clock::now();
        {
            core::AtcReader reader(store);
            std::vector<uint64_t> buf(1 << 16);
            while (reader.read(buf.data(), buf.size()) != 0)
                ;
        }
        auto u2 = Clock::now();
        lossy_single = seconds(u0, u1);
        lossy_batch = seconds(u1, u2);
    }

    std::printf("\nBatch-API decode (bytesort rows, read() in 64k "
                "spans):\n");
    std::printf("%-22s %12s %12.2f %12.2f\n", "total time (sec)", "-",
                batch_total[0], batch_total[1]);
    std::printf("%-22s %12s %12.2f %12.2f   speedup %.2fx / %.2fx\n",
                "addr/second (x1e6)", "-",
                addresses / batch_total[0] / 1e6,
                addresses / batch_total[1] / 1e6,
                total[1] / batch_total[0], total[2] / batch_total[1]);
    std::printf("\nLossy regeneration of %zu random addresses (Figure 8 "
                "scenario):\n",
                lossy_n);
    std::printf("%-22s %12.2f %12.2f   speedup %.2fx\n",
                "single/batch (Maddr/s)", lossy_n / lossy_single / 1e6,
                lossy_n / lossy_batch / 1e6, lossy_single / lossy_batch);
    std::printf("\nShape check: bytesort decompresses faster than TCgen; "
                "the byte-level codec dominates the time; batch read() "
                "beats per-value decode().\n");
    return 0;
}

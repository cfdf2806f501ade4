/**
 * @file
 * Microbenchmarks for the computational kernels: SA-IS/BWT (on text
 * and on the bytesort planes the writer feeds it), MTF, RLE, the
 * decoder's fused RLE/MTF-to-runs pass, the bwc codec's BWT stage
 * (RLE1 included) and the whole codec each way on the planes of
 * filtered suite traces (the `_suite` rows),
 * the byte-plane histograms behind lossy signatures, bytesort (on
 * synthetic addresses, and on the filtered suite addresses in the
 * 64k-address buffers a served request inverts), the
 * cache filter, the stack simulator and the CRC-32 that checks every
 * decoded frame. These are the knobs behind
 * Table 2's throughput numbers and the targets of the hot-loop tuning.
 *
 * Self-contained: each row is the median of 7 runs after an untimed
 * warm-up, with the 2nd and 6th fastest of the 7 as its spread
 * (seconds_q1 / seconds_q3), so a change can be read against the
 * row's own spread. Runs are timed in the calling thread's CPU time
 * (every kernel here is single-threaded, so time spent waiting for a
 * core of a shared machine is left out), and emitted in the shared
 * JSON shape so the CI perf-trajectory job archives kernel throughput
 * next to parallel_throughput.json.
 *
 * Every row checks its output. The suite rows compare each decoded
 * byte, so a small run (ATC_BENCH_SCALE=0.05, as ctest's
 * micro_kernels_smoke does) is a check of the decoders too.
 *
 * Usage: micro_kernels [json-path]
 *   json-path  output file (default micro_kernels.json)
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "atc/bytesort.hpp"
#include "atc/histogram.hpp"
#include "atc/lossy.hpp"
#include "bench_common.hpp"
#include "cache/filter.hpp"
#include "cache/stack_sim.hpp"
#include "compress/bwt.hpp"
#include "compress/codec.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "compress/stream.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace atc;

std::vector<uint8_t>
textLike(size_t n)
{
    util::Rng rng(1);
    std::vector<uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<uint8_t>('a' + rng.below(26));
    return data;
}

std::vector<uint64_t>
addressLike(size_t n)
{
    util::Rng rng(2);
    std::vector<uint64_t> addrs(n);
    uint64_t base = 0x10000000;
    for (auto &a : addrs) {
        if (rng.below(8) == 0)
            base = 0x10000000 + (rng.below(16) << 26);
        a = base + rng.below(1 << 18);
    }
    return addrs;
}

struct Row
{
    std::string kernel;
    size_t n;       ///< items processed per run (bytes or addresses)
    double secs;    ///< median thread-CPU seconds for one run
    double q1, q3;  ///< 2nd and 6th of the 7 sorted run times
    double m_per_s; ///< items per second, in millions
};

/** Time @p fn over @p n items and record one row: the median thread
 *  CPU time of 7 runs after an untimed warm-up, and its spread. Off
 *  the clock, @p prepare runs before every run (to restore an input
 *  the kernel consumes) and @p check after it (to check every output
 *  byte). */
template <typename Prepare, typename Fn, typename Check>
void
runKernel(std::vector<Row> &rows, const char *name, size_t n,
          Prepare &&prepare, Fn &&fn, Check &&check)
{
    prepare();
    fn(); // warm-up, untimed
    check();
    std::array<double, 7> runs;
    for (double &run : runs) {
        prepare();
        double t0 = bench::threadCpuSeconds();
        fn();
        run = bench::threadCpuSeconds() - t0;
        check();
    }
    std::sort(runs.begin(), runs.end());
    double secs = runs[3];
    rows.push_back({name, n, secs, runs[1], runs[5],
                    static_cast<double>(n) / secs / 1e6});
    std::fprintf(stderr, "  %-22s %8.4fs [%.4f, %.4f]  %9.3f M/s\n", name,
                 secs, runs[1], runs[5], rows.back().m_per_s);
}

/** A row whose @p fn needs no preparation and checks its own output. */
template <typename Fn>
void
runKernel(std::vector<Row> &rows, const char *name, size_t n, Fn &&fn)
{
    runKernel(rows, name, n, [] {}, fn, [] {});
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = argc > 1 ? argv[1] : "micro_kernels.json";

    const size_t kBytes = bench::scaledLen(1 << 20);
    const size_t kAddrs = bench::scaledLen(1'000'000);
    auto text = textLike(kBytes);
    auto addrs = addressLike(kAddrs);
    std::fprintf(stderr, "kernels: %zu bytes text, %zu addresses\n",
                 kBytes, kAddrs);

    std::vector<Row> rows;

    // The bytesort planes of the address data: the writer's real
    // codec input.
    std::vector<uint8_t> planes(8 * addrs.size());
    {
        std::vector<uint64_t> copy = addrs;
        core::bytesortForward(copy.data(), copy.size(), planes.data());
    }

    // BWT round trip (SA-IS construction dominates the forward pass),
    // on text and on the planes cut into kBytes codec blocks.
    auto bwt = comp::bwtForward(text.data(), text.size());
    runKernel(rows, "bwt_forward", kBytes, [&] {
        auto r = comp::bwtForward(text.data(), text.size());
        if (r.data.size() != text.size())
            std::abort();
    });
    runKernel(rows, "bwt_forward_planes", planes.size(), [&] {
        for (size_t off = 0; off < planes.size(); off += kBytes) {
            size_t len = std::min(kBytes, planes.size() - off);
            if (comp::bwtForward(planes.data() + off, len).data.size() !=
                len)
                std::abort();
        }
    });
    runKernel(rows, "bwt_inverse", kBytes, [&] {
        auto inv =
            comp::bwtInverse(bwt.data.data(), bwt.data.size(), bwt.starts);
        if (inv.size() != text.size())
            std::abort();
    });

    // The codec's real input: the planes of filtered suite traces
    // (~20k BWT runs per MiB against ~660k in `planes`), cut into 1 MiB
    // blocks at any scale. The two `_suite` BWT rows time the codec's
    // BWT stage as it runs: RLE1 and the transform of its text, and
    // the inverse walk (several chains per block) and the expansion.
    const size_t kSuiteBlock = size_t(1) << 20;
    const auto suite = bench::suitePlanes(planes.size());
    const size_t suite_blocks =
        (suite.size() + kSuiteBlock - 1) / kSuiteBlock;
    auto suiteBlock = [&](size_t b) {
        return std::make_pair(suite.data() + b * kSuiteBlock,
                              std::min(kSuiteBlock, suite.size() -
                                                        b * kSuiteBlock));
    };
    std::vector<comp::BwtResult> suite_bwt(suite_blocks);
    std::vector<uint8_t> rle1_text(comp::rle1Bound(kSuiteBlock));
    auto forwardSuite = [&] {
        for (size_t b = 0; b < suite_blocks; ++b) {
            auto [data, len] = suiteBlock(b);
            size_t t = comp::rle1Encode(data, len, rle1_text.data());
            suite_bwt[b] = comp::bwtForward(rle1_text.data(), t);
        }
    };
    std::vector<uint8_t> expanded(kSuiteBlock);
    auto inverseSuite = [&] {
        for (size_t b = 0; b < suite_blocks; ++b) {
            const comp::BwtResult &r = suite_bwt[b];
            auto inv = comp::bwtInverse(r.data.data(), r.data.size(),
                                        r.starts);
            auto [data, len] = suiteBlock(b);
            comp::rle1Decode(inv.data(), inv.size(), expanded.data(), len);
            if (!std::equal(data, data + len, expanded.begin()))
                std::abort();
        }
    };
    runKernel(rows, "bwt_forward_suite", suite.size(), [] {}, forwardSuite,
              inverseSuite);
    runKernel(rows, "bwt_inverse_suite", suite.size(), inverseSuite);

    // MTF + RLE over the BWT output — the shape they see in the codec.
    auto mtf = comp::mtfEncode(bwt.data.data(), bwt.data.size());
    runKernel(rows, "mtf_encode", kBytes, [&] {
        auto enc = comp::mtfEncode(bwt.data.data(), bwt.data.size());
        if (enc.size() != bwt.data.size())
            std::abort();
    });
    auto rle = comp::rleEncode(mtf.data(), mtf.size());
    runKernel(rows, "rle_encode", kBytes, [&] {
        auto enc = comp::rleEncode(mtf.data(), mtf.size());
        if (enc.size() != rle.size())
            std::abort();
    });
    // The decoder's fused stage: RLE symbols straight to BWT runs.
    std::vector<comp::BwtRun> runs;
    runKernel(rows, "mtf_rle_to_runs", kBytes, [&] {
        comp::mtfRleToRuns(rle.data(), rle.size(), mtf.size(), runs);
        if (runs.empty())
            std::abort();
    });

    // Lossy-path address kernels: the per-interval byte histograms and
    // the full signature (histograms + per-plane sort).
    runKernel(rows, "histogram", kAddrs, [&] {
        auto h = core::computeHistograms(addrs.data(), addrs.size());
        if (h.len != addrs.size())
            std::abort();
    });
    runKernel(rows, "lossy_signature", kAddrs, [&] {
        auto sig =
            core::LossyEncoder::signatureOf(addrs.data(), addrs.size());
        if (sig.hist.len != addrs.size())
            std::abort();
    });

    // Bytesort transform round trip. Both directions consume their
    // input, so each run copies it first; the whole output is checked
    // off the clock.
    std::vector<uint8_t> work(planes.size());
    std::vector<uint64_t> back(addrs.size());
    runKernel(
        rows, "bytesort_forward", kAddrs, [] {},
        [&] {
            std::copy(addrs.begin(), addrs.end(), back.begin());
            core::bytesortForward(back.data(), addrs.size(), work.data());
        },
        [&] {
            if (work != planes)
                std::abort();
        });
    runKernel(
        rows, "bytesort_inverse", kAddrs, [] {},
        [&] {
            std::copy(planes.begin(), planes.end(), work.begin());
            core::bytesortInverseInPlace(work.data(), addrs.size(),
                                         back.data());
        },
        [&] {
            if (back != addrs)
                std::abort();
        });

    // The same round trip over the filtered suite addresses (as
    // suitePlanes), in the 64k-address buffers a served READ_RANGE
    // inverse-transforms. The input is restored off the clock.
    const size_t kSuiteBuffer = size_t(1) << 16;
    const std::vector<uint64_t> suite_addrs = bench::suiteTrace(kAddrs);
    std::vector<uint8_t> suite_planes(8 * kAddrs);
    auto suiteBuffers = [&](auto &&fn) {
        for (size_t off = 0; off < kAddrs; off += kSuiteBuffer)
            fn(off, std::min(kSuiteBuffer, kAddrs - off));
    };
    back = suite_addrs;
    suiteBuffers([&](size_t off, size_t len) {
        core::bytesortForward(back.data() + off, len,
                              suite_planes.data() + 8 * off);
    });
    runKernel(
        rows, "bytesort_forward_suite", kAddrs,
        [&] { back = suite_addrs; },
        [&] {
            suiteBuffers([&](size_t off, size_t len) {
                core::bytesortForward(back.data() + off, len,
                                      work.data() + 8 * off);
            });
        },
        [&] {
            if (work != suite_planes)
                std::abort();
        });
    runKernel(
        rows, "bytesort_inverse_suite", kAddrs,
        [&] { work = suite_planes; },
        [&] {
            suiteBuffers([&](size_t off, size_t len) {
                core::bytesortInverseInPlace(work.data() + 8 * off, len,
                                             back.data() + off);
            });
        },
        [&] {
            if (back != suite_addrs)
                std::abort();
        });

    // Cache-side kernels.
    runKernel(rows, "cache_filter", kAddrs, [&] {
        cache::CacheFilter filter;
        uint64_t emitted = 0;
        for (uint64_t a : addrs)
            emitted += filter.access(a, false).has_value();
        if (emitted == 0)
            std::abort();
    });
    runKernel(rows, "stack_sim", kAddrs, [&] {
        cache::StackSimulator sim(1024, 32);
        for (uint64_t a : addrs)
            sim.access(a >> 6);
        if (sim.missCount(8) == 0)
            std::abort();
    });

    // Integrity: every codec block and the whole lossless stream are
    // checksummed on both the write and the read side.
    runKernel(rows, "crc32", kBytes, [&] {
        if (util::crc32(text.data(), text.size()) == 0)
            std::abort();
    });

    // End-to-end codec reference points.
    const auto &codec = comp::codecByName("bwc");
    auto compressed = comp::compressAll(codec, text.data(), text.size());
    runKernel(rows, "bwc_compress", kBytes, [&] {
        auto c = comp::compressAll(codec, text.data(), text.size());
        if (c.size() != compressed.size())
            std::abort();
    });
    runKernel(rows, "bwc_decompress", kBytes, [&] {
        auto d =
            comp::decompressAll(codec, compressed.data(), compressed.size());
        if (d.size() != text.size())
            std::abort();
    });
    // The reader's real codec input: the planes in kBytes blocks.
    auto packed = comp::compressAll(codec, planes.data(), planes.size(),
                                    kBytes);
    runKernel(rows, "bwc_decompress_planes", planes.size(), [&] {
        auto d = comp::decompressAll(codec, packed.data(), packed.size());
        if (d.size() != planes.size())
            std::abort();
    });

    // The whole codec over the suite planes in 1 MiB blocks, each way;
    // every decoded byte is compared.
    std::vector<uint8_t> suite_packed;
    runKernel(
        rows, "bwc_encode_suite", suite.size(), [] {},
        [&] {
            suite_packed = comp::compressAll(codec, suite.data(),
                                             suite.size(), kSuiteBlock);
        },
        [&] {
            if (comp::decompressAll(codec, suite_packed.data(),
                                    suite_packed.size()) != suite)
                std::abort();
        });
    runKernel(rows, "bwc_decode_suite", suite.size(), [&] {
        auto d = comp::decompressAll(codec, suite_packed.data(),
                                     suite_packed.size());
        if (d != suite)
            std::abort();
    });

    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"micro_kernels\",\n"
                 "  \"cores\": %u,\n  \"results\": [\n",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(json,
                     "    {\"kernel\": \"%s\", \"items\": %zu, "
                     "\"seconds\": %.5f, \"seconds_q1\": %.5f, "
                     "\"seconds_q3\": %.5f, \"mitems_per_s\": %.3f}%s\n",
                     r.kernel.c_str(), r.n, r.secs, r.q1, r.q3, r.m_per_s,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

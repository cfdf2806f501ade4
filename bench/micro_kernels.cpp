/**
 * @file
 * Microbenchmarks for the computational kernels: SA-IS/BWT (on text
 * and on the bytesort planes the writer feeds it), MTF, RLE, the
 * decoder's fused RLE/MTF-to-runs pass,
 * the byte-plane histograms behind lossy signatures, bytesort, the
 * cache filter, the stack simulator and the CRC-32 that checks every
 * codec block and every lossless stream. These are the knobs behind
 * Table 2's throughput numbers and the targets of the hot-loop tuning.
 *
 * Self-contained: timed with bench_common's bestOfK (steady clock,
 * best of 3 after an untimed warm-up) and emitted in the shared JSON
 * shape so the CI perf-trajectory job archives kernel throughput next
 * to parallel_throughput.json.
 *
 * Usage: micro_kernels [json-path]
 *   json-path  output file (default micro_kernels.json)
 */

#include <algorithm>
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
    double secs;    ///< best-of-k wall-clock seconds for one run
    double m_per_s; ///< items per second, in millions
};

/** Time @p fn (best of 3) over @p n items and record one row. */
template <typename Fn>
void
runKernel(std::vector<Row> &rows, const char *name, size_t n, Fn &&fn)
{
    double secs = bench::bestOfK(3, fn);
    rows.push_back(
        {name, n, secs, static_cast<double>(n) / secs / 1e6});
    std::fprintf(stderr, "  %-22s %8.4fs  %9.3f M/s\n", name, secs,
                 rows.back().m_per_s);
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
            comp::bwtInverse(bwt.data.data(), bwt.data.size(), bwt.primary);
        if (inv.size() != text.size())
            std::abort();
    });

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
    // input, so each run copies it first.
    std::vector<uint8_t> work(planes.size());
    std::vector<uint64_t> back(addrs.size());
    runKernel(rows, "bytesort_forward", kAddrs, [&] {
        std::copy(addrs.begin(), addrs.end(), back.begin());
        core::bytesortForward(back.data(), addrs.size(), work.data());
        if (work.front() != planes.front())
            std::abort();
    });
    runKernel(rows, "bytesort_inverse", kAddrs, [&] {
        std::copy(planes.begin(), planes.end(), work.begin());
        core::bytesortInverseInPlace(work.data(), addrs.size(),
                                     back.data());
        if (back.back() != addrs.back())
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
                     "\"seconds\": %.5f, \"mitems_per_s\": %.3f}%s\n",
                     r.kernel.c_str(), r.n, r.secs, r.m_per_s,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

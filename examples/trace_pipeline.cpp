/**
 * @file
 * End-to-end trace pipeline: synthetic workload -> L1 cache filter ->
 * ATC compression (lossless and lossy), reporting sizes and
 * bits-per-address — the workflow of the paper's §4.2/§5.3 setup.
 *
 * The stages are composed through the trace-pipeline interfaces: an
 * AccessGenerator feeds a cache::FilterStage whose miss stream fans out
 * (TeeSink) into a vector and both compressors in a single pass — no
 * hand-written per-stage loops. With -j N the compressors are the
 * parallel drivers (byte-identical containers, N worker threads).
 *
 * Usage: trace_pipeline [-j N] [benchmark] [addresses]
 *   -j N       compress/decompress with N worker threads
 *   --metrics-json PATH
 *              before exiting, dump the obs registry snapshot (stage
 *              timings over the whole run) to PATH as JSON
 *   benchmark  suite entry name (default 429.mcf), or an adversarial
 *              corpus spec such as "ptrchase:nodes=1m,stride=rand"
 *              (families: gcphase, multicore, ptrchase, stream — these
 *              are miss streams already, so the L1 filter is skipped)
 *   addresses  filtered trace length (default 1000000)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_atc.hpp"
#include "tcgen/corpus.hpp"
#include "trace/pipeline.hpp"
#include "trace/stats.hpp"
#include "trace/suite.hpp"

namespace {

/** Serial or parallel compressor behind one TraceSink facade. */
struct Compressor
{
    std::unique_ptr<atc::core::AtcWriter> serial;
    std::unique_ptr<atc::parallel::ParallelAtcWriter> par;

    atc::trace::TraceSink *
    sink()
    {
        return par ? static_cast<atc::trace::TraceSink *>(par.get())
                   : serial.get();
    }

    const atc::core::LossyStats &
    lossyStats() const
    {
        return par ? par->lossyStats() : serial->lossyStats();
    }
};

Compressor
makeCompressor(atc::core::ChunkStore &store,
               const atc::core::AtcOptions &opt, size_t threads)
{
    Compressor c;
    if (threads > 1) {
        atc::parallel::ParallelOptions popt;
        popt.threads = threads;
        c.par = std::make_unique<atc::parallel::ParallelAtcWriter>(
            store, opt, popt);
    } else {
        c.serial = std::make_unique<atc::core::AtcWriter>(store, opt);
    }
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace atc;

    size_t threads = 1;
    std::string metrics_json;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics-json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--metrics-json needs a path\n");
                return 2;
            }
            metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "-j") == 0 ||
            std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 < argc)
                threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strncmp(argv[i], "-j", 2) == 0 &&
                   argv[i][2] != '\0') {
            threads = std::strtoull(argv[i] + 2, nullptr, 10);
        } else {
            positional.push_back(argv[i]);
        }
    }
    std::string name = !positional.empty() ? positional[0] : "429.mcf";
    size_t count = positional.size() > 1
                       ? std::strtoull(positional[1], nullptr, 10)
                       : 1'000'000;

    // A name with a ':' or matching a corpus family is an adversarial
    // corpus spec (same grammar bench/matrix sweeps); anything else is
    // a suite benchmark run through the L1 filter.
    const auto &families = tcg::corpusFamilies();
    bool is_corpus =
        name.find(':') != std::string::npos ||
        std::find(families.begin(), families.end(), name) !=
            families.end();

    const trace::SyntheticBenchmark *bench = nullptr;
    std::vector<uint64_t> addrs;
    if (is_corpus) {
        auto src = tcg::makeCorpusSource(name, count);
        if (!src.ok()) {
            std::fprintf(stderr, "corpus spec '%s': %s\n", name.c_str(),
                         src.status().message().c_str());
            return 2;
        }
        std::printf("Corpus %s: generating %zu addresses "
                    "(%zu thread%s)\n",
                    src.value()->describe().c_str(), count, threads,
                    threads == 1 ? "" : "s");
        std::printf("  corpus generators emit miss streams directly; "
                    "L1 filter skipped\n");
        addrs.reserve(count);
        uint64_t buf[4096];
        size_t got;
        while ((got = src.value()->read(buf, 4096)) != 0)
            addrs.insert(addrs.end(), buf, buf + got);
    } else {
        bench = &trace::benchmarkByName(name);
        std::printf("Benchmark %s (class %s): collecting %zu "
                    "cache-filtered addresses (%zu thread%s)\n",
                    bench->name.c_str(), bench->klass.c_str(), count,
                    threads, threads == 1 ? "" : "s");
        std::printf("  filter: two 32 KB / 4-way / LRU / 64 B L1 caches "
                    "(I and D)\n");

        // The I/D interleaving of the suite model needs its own
        // routing, so the reference trace comes from the suite helper...
        addrs = trace::collectFilteredTrace(*bench, count, 1);
    }
    auto stats = trace::computeStats(addrs);
    std::printf("  unique blocks: %llu (%.1f MB footprint), sequential "
                "fraction %.2f\n",
                static_cast<unsigned long long>(stats.unique),
                stats.unique * 64.0 / 1048576, stats.sequential_fraction);

    // ... and both compressors consume it as one composed pipeline:
    // VectorTraceSource -> TeeSink -> { lossless writer, lossy writer }.
    core::MemoryStore lossless_store, lossy_store;

    core::AtcOptions lossless_opt;
    lossless_opt.mode = core::Mode::Lossless;
    lossless_opt.pipeline.buffer_addrs = count / 10;
    Compressor lossless =
        makeCompressor(lossless_store, lossless_opt, threads);

    core::AtcOptions lossy_opt;
    lossy_opt.mode = core::Mode::Lossy;
    lossy_opt.lossy.interval_len = count / 100;
    lossy_opt.pipeline.buffer_addrs = count / 100;
    Compressor lossy = makeCompressor(lossy_store, lossy_opt, threads);

    trace::VectorTraceSource source(addrs);
    trace::TeeSink fanout({lossless.sink(), lossy.sink()});
    trace::pump(source, fanout);
    fanout.close();

    std::printf("  lossless (bytesort B=n/10 + bwc): %8llu bytes, "
                "%6.3f bits/address\n",
                static_cast<unsigned long long>(
                    lossless_store.totalBytes()),
                8.0 * lossless_store.totalBytes() / addrs.size());

    const auto &ls = lossy.lossyStats();
    std::printf("  lossy (L=n/100, eps=0.1):            %8llu bytes, "
                "%6.3f bits/address (%llu chunks / %llu intervals)\n",
                static_cast<unsigned long long>(lossy_store.totalBytes()),
                8.0 * lossy_store.totalBytes() / addrs.size(),
                static_cast<unsigned long long>(ls.chunks_created),
                static_cast<unsigned long long>(ls.intervals));

    // Verify the regenerated length (always preserved) by draining the
    // reader as a TraceSource — decoding on a pool when -j asked.
    size_t n = 0;
    {
        core::AtcReader reader(lossy_store, core::kDefaultDecodedCacheBytes,
                               threads > 1 ? threads : 0);
        uint64_t buf[4096];
        size_t got;
        while ((got = reader.read(buf, 4096)) != 0)
            n += got;
    }
    std::printf("  lossy regeneration: %zu addresses (%s)\n", n,
                n == addrs.size() ? "OK" : "MISMATCH");
    if (n != addrs.size())
        return 1;

    // Bonus: the same seam runs the paper's Figure 8 layout directly —
    // generator -> filter stage -> compressor, one object chain.
    // (Suite benchmarks only: corpus generators have no raw/pre-filter
    // form, their output already is the miss stream.)
    if (bench) {
        core::MemoryStore store;
        core::AtcOptions opt;
        opt.mode = core::Mode::Lossless;
        opt.pipeline.buffer_addrs = count / 10;
        core::AtcWriter writer(store, opt);
        cache::FilterStage filter(writer);
        trace::GeneratorPtr gen = bench->makeData(1);
        trace::GeneratorSource raw(*gen, count * 4);
        trace::pump(raw, filter);
        filter.close();
        std::printf("  chained generator->filter->atc: %llu filtered "
                    "addresses, %llu bytes\n",
                    static_cast<unsigned long long>(writer.count()),
                    static_cast<unsigned long long>(store.totalBytes()));
    }
    if (!metrics_json.empty() && !obs::writeMetricsJson(metrics_json)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_json.c_str());
        return 1;
    }
    return 0;
}

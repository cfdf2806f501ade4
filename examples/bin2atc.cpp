/**
 * @file
 * CLI mirroring the paper's Figure 6: read raw 64-bit values from
 * standard input and write an ATC-compressed directory.
 *
 * Usage: bin2atc [-j N] <dirname> [c|k] [codec-spec]
 *   -j N        compress with N worker threads (default 1 = serial)
 *   --block BYTES
 *               codec block (= seekable frame) size; k/m/g suffixes.
 *               Smaller frames cost compression ratio but shrink the
 *               decode granularity random access pays — a sampling
 *               study (docs/sampling.md) wants frames no larger than
 *               its windows
 *   --buffer ADDRS
 *               transform buffer capacity in addresses (k/m/g)
 *   c           lossless compression
 *   k           lossy compression (default, as in the paper's example)
 *   codec-spec  registry spec, e.g. bwc, lzh, bwc:block=900k
 *   --metrics-json PATH
 *               after closing the container, dump the obs registry
 *               snapshot (pipeline stage timings, I/O and pool
 *               counters) to PATH as JSON (see docs/metrics.md)
 *
 * Example (paper Figure 8):
 *   cat /dev/urandom | head -c 800000000 | bin2atc -j 8 foobar
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "obs/metrics.hpp"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [-j N] [--block BYTES] [--buffer ADDRS] "
                 "[--metrics-json PATH] <dirname> [c|k] [codec-spec]\n",
                 argv0);
    return 2;
}

/** Parse a positive size with an optional k/m/g binary suffix. */
bool
parseSize(const char *text, size_t &out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || v == 0)
        return false;
    switch (*end) {
      case '\0': break;
      case 'k': case 'K': v <<= 10; ++end; break;
      case 'm': case 'M': v <<= 20; ++end; break;
      case 'g': case 'G': v <<= 30; ++end; break;
      default: return false;
    }
    if (*end != '\0')
        return false;
    out = static_cast<size_t>(v);
    return true;
}

/** Parse a -j/--threads option at argv[i]; advances i past it. */
bool
parseThreads(int argc, char **argv, int &i, size_t &threads)
{
    const char *arg = argv[i];
    if (std::strcmp(arg, "-j") == 0 ||
        std::strcmp(arg, "--threads") == 0) {
        if (i + 1 >= argc)
            return false;
        threads = std::strtoull(argv[++i], nullptr, 10);
        return true;
    }
    if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
        threads = std::strtoull(arg + 2, nullptr, 10);
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace atc;

    size_t threads = 1;
    size_t codec_block = 0;
    size_t buffer_addrs = 0;
    std::string metrics_json;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics-json") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "--block") == 0) {
            if (i + 1 >= argc || !parseSize(argv[++i], codec_block))
                return usage(argv[0]);
        } else if (std::strcmp(argv[i], "--buffer") == 0) {
            if (i + 1 >= argc || !parseSize(argv[++i], buffer_addrs))
                return usage(argv[0]);
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            if (!parseThreads(argc, argv, i, threads))
                return usage(argv[0]);
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.empty())
        return usage(argv[0]);

    const char mode = positional.size() > 1 ? positional[1][0] : 'k';
    if (mode != 'c' && mode != 'k') {
        std::fprintf(stderr, "mode must be 'c' (lossless) or 'k' "
                             "(lossy)\n");
        return 2;
    }

    core::AtcOptions options;
    options.mode = mode == 'k' ? core::Mode::Lossy : core::Mode::Lossless;
    if (positional.size() > 2)
        options.pipeline.codec = positional[2];
    if (codec_block != 0)
        options.pipeline.codec_block = codec_block;
    if (buffer_addrs != 0)
        options.pipeline.buffer_addrs = buffer_addrs;

    // -j 1 is the serial writer: workers only from 2 threads up.
    auto opened = core::AtcWriter::open(positional[0], options,
                                        threads > 1 ? threads : 0);
    if (!opened.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     opened.status().message().c_str());
        return 1;
    }
    std::unique_ptr<core::AtcWriter> writer = opened.take();

    try {
        std::vector<uint64_t> batch(1 << 16);
        size_t got;
        while ((got = std::fread(batch.data(), sizeof(uint64_t),
                                 batch.size(), stdin)) > 0)
            writer->write(batch.data(), got);
    } catch (const util::Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    util::Status closed = writer->tryClose();
    if (!closed.ok()) {
        std::fprintf(stderr, "error: %s\n", closed.message().c_str());
        return 1;
    }
    std::fprintf(stderr, "%llu values compressed into %s (%zu thread%s)\n",
                 static_cast<unsigned long long>(writer->count()),
                 positional[0], threads, threads == 1 ? "" : "s");
    if (!metrics_json.empty() && !obs::writeMetricsJson(metrics_json)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_json.c_str());
        return 1;
    }
    return 0;
}

/**
 * @file
 * Container inspection tool: prints the metadata of an ATC trace
 * directory — mode, codec spec, per-chunk sizes, and a decode probe.
 * The chunk suffix is auto-detected; pass it explicitly only when
 * several containers share one directory.
 *
 * Usage: atcinfo [--frames] [--metrics] <dirname> [suffix]
 *   --frames  also print each chunk's frame index: frame count and
 *             compressed/decompressed extents, straight from the
 *             AtcIndex scan (no payload is decoded).
 *   --metrics after the probe, print the full obs registry snapshot
 *             in the shared atc_metrics text encoding (cache.*, io.*
 *             — including the zero-copy counters io.mmap_opens/
 *             io.view_bytes —, codec.*; see docs/metrics.md) instead
 *             of the one-line cache summary.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "obs/metrics.hpp"

int
main(int argc, char **argv)
{
    using namespace atc;

    bool frames = false;
    bool metrics = false;
    std::string dir;
    std::string suffix;
    bool bad_args = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--frames") == 0) {
            frames = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            metrics = true;
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            bad_args = true; // unknown option, not a directory
        } else if (dir.empty()) {
            dir = argv[i];
        } else {
            suffix = argv[i];
        }
    }
    if (dir.empty() || bad_args) {
        std::fprintf(stderr,
                     "usage: %s [--frames] [--metrics] <dirname> "
                     "[suffix]\n",
                     argv[0]);
        return 2;
    }

    try {
        std::unique_ptr<core::AtcReader> reader;
        if (!suffix.empty())
            reader = std::make_unique<core::AtcReader>(dir, suffix);
        else
            reader = std::make_unique<core::AtcReader>(dir);

        std::printf("container:  %s\n", dir.c_str());
        std::printf("version:    %d\n", int(reader->containerVersion()));
        std::printf("mode:       %s\n",
                    reader->mode() == core::Mode::Lossy
                        ? "lossy ('k')"
                        : "lossless ('c')");
        std::printf("codec:      %s\n", reader->codecSpec().c_str());
        std::printf("addresses:  %llu\n",
                    static_cast<unsigned long long>(reader->count()));

        uint64_t total_bytes = 0;
        size_t files = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            ++files;
            total_bytes += entry.file_size();
        }
        std::printf("files:      %zu, %llu bytes total "
                    "(%.3f bits/address)\n",
                    files, static_cast<unsigned long long>(total_bytes),
                    reader->count()
                        ? 8.0 * static_cast<double>(total_bytes) /
                              static_cast<double>(reader->count())
                        : 0.0);

        if (frames) {
            const auto &index = *reader->index();
            for (uint32_t id = 0; id < index.chunkCount(); ++id) {
                const comp::StreamLayout &layout = index.chunkLayout(id);
                uint64_t comp_total =
                    layout.comp_starts.back() - layout.comp_starts[0];
                std::printf("chunk %-4u  %5zu frames, %llu -> %llu "
                            "bytes (x%.2f)\n",
                            id, layout.frames.size(),
                            static_cast<unsigned long long>(
                                layout.rawTotal()),
                            static_cast<unsigned long long>(comp_total),
                            comp_total
                                ? static_cast<double>(layout.rawTotal()) /
                                      static_cast<double>(comp_total)
                                : 0.0);
            }
        }

        // Decode a prefix to prove the container is readable — through
        // cursor->readRange, which reads via the shared decoded-block
        // cache (the sequential path deliberately bypasses it).
        uint64_t probe_n = std::min<uint64_t>(1000, reader->count());
        std::vector<uint64_t> probe_buf;
        reader->index()
            ->cursor()
            ->readRange(0, probe_n, probe_buf)
            .orThrow();
        std::printf("probe:      first %zu addresses decode OK\n",
                    probe_buf.size());

        // The probe populated the index's shared decoded-block cache
        // and exercised the instrumented decode path. With --metrics
        // the whole registry snapshot goes out in the shared text
        // encoding (the same bytes the serve METRICS op returns);
        // otherwise just the one-line cache summary.
        if (metrics) {
            std::printf("metrics:\n%s",
                        obs::snapshotToText(
                            obs::Registry::global().snapshot())
                            .c_str());
        } else {
            core::BlockCacheStats cs = reader->index()->cacheStats();
            std::printf("cache:      %llu hit%s, %llu miss%s, "
                        "%llu/%llu bytes in %llu entr%s\n",
                        static_cast<unsigned long long>(cs.hits),
                        cs.hits == 1 ? "" : "s",
                        static_cast<unsigned long long>(cs.misses),
                        cs.misses == 1 ? "" : "es",
                        static_cast<unsigned long long>(cs.bytes),
                        static_cast<unsigned long long>(
                            reader->index()->info().mode ==
                                    core::Mode::Lossy
                                ? reader->index()->chunkCache()
                                      .capacityBytes()
                                : reader->index()->frameCache()
                                      .capacityBytes()),
                        static_cast<unsigned long long>(cs.entries),
                        cs.entries == 1 ? "y" : "ies");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

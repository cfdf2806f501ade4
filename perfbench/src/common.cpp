#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <thread>

#include "cache/filter.hpp"
#include "parallel/parallel_atc.hpp"
#include "trace/pipeline.hpp"
#include "trace/suite.hpp"
#include "util/bytestream.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace atc;

// Records per write()/read() call: large enough that per-call overhead
// vanishes, small enough that spans resolve the phase.
constexpr size_t kBatch = 1 << 16;
// Records one writeRep writes at least.
constexpr size_t kRepRecords = 8'000'000;
// Records of the serial layer replays and of the speedup slice.
constexpr size_t kReplaySlice = 2'000'000;

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "VERIFY FAILED: %s\n", what.c_str());
}

size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::vector<uint64_t>
filteredMix(size_t per_model, uint64_t seed, Tracer &tr, FilterEvidence &ev)
{
    static const char *const models[] = {"462.libquantum", "403.gcc",
                                         "429.mcf", "400.perlbench"};
    std::vector<uint64_t> out;
    out.reserve(std::size(models) * per_model);
    std::vector<uint64_t> raw(kBatch);
    for (size_t m = 0; m < std::size(models); ++m) {
        const trace::SyntheticBenchmark &bench =
            trace::benchmarkByName(models[m]);
        trace::GeneratorPtr gen = bench.makeData(seed * 1000003 + m);
        std::vector<uint64_t> misses;
        misses.reserve(per_model + kBatch);
        trace::VectorTraceSink sink(misses);
        cache::FilterStage filter(sink);
        while (misses.size() < per_model) {
            {
                Scope s(tr, "trace.generate");
                for (uint64_t &a : raw)
                    a = gen->next();
            }
            uint64_t t0 = nowNs();
            {
                Scope s(tr, "cache.filter.write");
                filter.write(raw.data(), raw.size());
            }
            ev.write_s += since(t0);
        }
        cache::CacheStats st = filter.dcacheStats();
        ev.accesses += st.accesses;
        ev.misses += st.misses;
        out.insert(out.end(), misses.begin(), misses.begin() + per_model);
    }
    return out;
}

WriteTimes
writeContainer(const std::string &dir, const core::AtcOptions &opt,
               const std::vector<uint64_t> &data, size_t threads,
               Tracer &tr)
{
    removeDir(dir);
    WriteTimes t;
    uint64_t t0 = nowNs();
    auto feed = [&](auto &w) {
        for (size_t i = 0; i < data.size(); i += kBatch) {
            Scope s(tr, "parallel.write");
            w.write(data.data() + i, std::min(kBatch, data.size() - i));
        }
        uint64_t c0 = nowNs();
        {
            Scope s(tr, "parallel.close");
            w.close();
        }
        t.close_s = since(c0);
        if (opt.mode == core::Mode::Lossy)
            t.lossy = w.lossyStats();
    };
    if (threads <= 1) {
        core::AtcWriter w(dir, opt);
        feed(w);
    } else {
        parallel::ParallelOptions popt;
        popt.threads = threads - 1;
        parallel::ParallelAtcWriter w(dir, opt, popt);
        feed(w);
    }
    t.seconds = since(t0);
    return t;
}

double
writeRep(const std::string &dir, const core::AtcOptions &opt,
         const std::vector<uint64_t> &data, size_t threads,
         std::vector<double> &close_s, Tracer &tr)
{
    Scope s(tr, "bench.write_rep");
    const size_t per_rep = (kRepRecords + data.size() - 1) / data.size();
    double secs = 0;
    for (size_t i = 0; i < per_rep; ++i) {
        WriteTimes w = writeContainer(dir, opt, data, threads, tr);
        secs += w.seconds;
        close_s.push_back(w.close_s);
    }
    return double(per_rep * data.size()) / secs / 1e6;
}

double
readContainer(const std::string &dir, size_t threads,
              std::vector<uint64_t> &out, Tracer &tr)
{
    uint64_t t0 = nowNs();
    auto drain = [&](auto &r) {
        out.resize(r.count());
        size_t got = 0;
        while (got < out.size()) {
            Scope s(tr, "parallel.read");
            size_t n = r.read(out.data() + got,
                              std::min(kBatch, out.size() - got));
            if (n == 0)
                break;
            got += n;
        }
        out.resize(got);
    };
    if (threads <= 1) {
        core::AtcReader r(dir);
        drain(r);
    } else {
        parallel::ParallelOptions popt;
        popt.threads = threads - 1;
        parallel::ParallelAtcReader r(dir, popt);
        drain(r);
    }
    return since(t0);
}

namespace {

/** Serial replay of the lossless pipeline's layers on one input. */
struct LayerReplay
{
    double fwd_maddrs = 0;  ///< TransformEncoder, M addresses/s
    double inv_maddrs = 0;  ///< TransformDecoder, M addresses/s
    double encode_mbps = 0; ///< Codec::compressBlock, MB/s of raw bytes
    double decode_mbps = 0; ///< Codec::decompressBlock, MB/s of raw bytes
    bool exact = false;     ///< both inverses reproduced their input
};

/**
 * Replay, on one thread, what the threaded writer and reader spread
 * over the pool: transform, codec encode, codec decode, inverse
 * transform, each timed alone. This is the transform-versus-codec
 * busy split the pipelined writer hides.
 */
LayerReplay
replayLayers(const uint64_t *data, size_t n, const core::LosslessParams &p,
             Tracer &tr)
{
    LayerReplay r;
    std::vector<uint8_t> bytes;
    util::VectorSink sink(bytes);
    uint64_t t0 = nowNs();
    {
        core::TransformEncoder enc(p.transform, p.buffer_addrs, sink);
        for (size_t i = 0; i < n; i += kBatch) {
            Scope s(tr, "atc.transform.encode");
            enc.write(data + i, std::min(kBatch, n - i));
        }
        Scope s(tr, "atc.transform.encode");
        enc.finish();
    }
    r.fwd_maddrs = double(n) / since(t0) / 1e6;

    comp::ConfiguredCodec codec = comp::makeCodec(p.codec);
    size_t block = codec.blockOr(p.codec_block);
    std::vector<std::vector<uint8_t>> packed;
    t0 = nowNs();
    for (size_t off = 0; off < bytes.size(); off += block) {
        Scope s(tr, "compress.encode");
        util::VectorSink out(packed.emplace_back());
        codec.codec->compressBlock(bytes.data() + off,
                                   std::min(block, bytes.size() - off), out);
    }
    r.encode_mbps = double(bytes.size()) / since(t0) / 1e6;

    std::vector<uint8_t> back, tmp;
    back.reserve(bytes.size());
    t0 = nowNs();
    for (size_t b = 0; b < packed.size(); ++b) {
        Scope s(tr, "compress.decode");
        util::MemorySource src(packed[b]);
        codec.codec->decompressBlock(
            src, std::min(block, bytes.size() - b * block), tmp);
        back.insert(back.end(), tmp.begin(), tmp.end());
    }
    r.decode_mbps = double(bytes.size()) / since(t0) / 1e6;

    std::vector<uint64_t> addrs(n);
    size_t got = 0;
    t0 = nowNs();
    {
        util::MemorySource src(bytes);
        core::TransformDecoder dec(p.transform, src);
        while (got < n) {
            Scope s(tr, "atc.transform.decode");
            size_t k = dec.read(addrs.data() + got, std::min(kBatch, n - got));
            if (k == 0)
                break;
            got += k;
        }
    }
    r.inv_maddrs = double(n) / since(t0) / 1e6;
    r.exact = back == bytes && got == n &&
              std::equal(addrs.begin(), addrs.end(), data);
    return r;
}

} // namespace

void
reportLayerReplays(const std::vector<uint64_t> &input,
                   const core::AtcOptions &opt, const std::string &dir,
                   Tracer &tr, Report &rep)
{
    const size_t n = std::min(kReplaySlice, input.size());
    LayerReplay lr = replayLayers(input.data(), n, opt.pipeline, tr);
    rep.check(lr.exact, "serial layer replay did not round-trip");
    rep.layer("atc.transform.fwd_maddrs", lr.fwd_maddrs, "Maddr/s");
    rep.layer("atc.transform.inv_maddrs", lr.inv_maddrs, "Maddr/s");
    rep.layer("compress.encode_mbps", lr.encode_mbps, "MB/s");
    rep.layer("compress.decode_mbps", lr.decode_mbps, "MB/s");

    const size_t L = input.size() / 100;
    uint64_t t0 = nowNs();
    for (size_t off = 0; off + L <= input.size(); off += L) {
        Scope s(tr, "atc.lossy.signature");
        core::LossyEncoder::signatureOf(input.data() + off, L);
    }
    rep.layer("atc.lossy.signature_maddrs",
              double(input.size() / L * L) / since(t0) / 1e6, "Maddr/s");

    std::vector<uint64_t> slice(input.begin(), input.begin() + n), back;
    double cs[2], ds[2];
    const size_t threads[2] = {1, hardwareThreads()};
    for (int i = 0; i < 2; ++i) {
        cs[i] = writeContainer(dir, opt, slice, threads[i], tr).seconds;
        ds[i] = readContainer(dir, threads[i], back, tr);
        rep.check(back == slice, "speedup-slice decode differs");
    }
    rep.layer("parallel.compress_speedup", cs[0] / cs[1], "x");
    rep.layer("parallel.decompress_speedup", ds[0] / ds[1], "x");
    removeDir(dir);
}

uint64_t
containerBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            total += e.file_size();
    return total;
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // namespace perfbench

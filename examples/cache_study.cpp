/**
 * @file
 * Cache-design studies over ATC traces.
 *
 * Two modes:
 *
 *  - Grid demo (default, the paper's §5.3 use case): compare LRU miss
 *    ratios of an exact and a lossy-regenerated benchmark trace across
 *    a grid of cache geometries.
 *
 *        cache_study [benchmark] [addresses]
 *
 *  - Sampling study (`--sample`): estimate whole-trace miss ratios
 *    from scattered windows of a seekable container, decoding only
 *    the frames the windows touch — locally through AtcIndex, or
 *    against an atcserved daemon with `--connect`. Emits one JSON
 *    document on stdout (windows, estimates ± CI, decoded-bytes
 *    accounting, parity CRCs; see docs/sampling.md).
 *
 *        cache_study --sample DIR [--plan SPEC] [--sets 64,256]
 *                    [--ways N] [--block-shift N] [--threads N]
 *                    [--fetch range|seek] [--reference] [--json PATH]
 *        cache_study --sample --connect HOST:PORT --name NAME ...
 *
 *    `--sample DIR --connect ... --name ...` uses the daemon for the
 *    sampled windows and the local directory for `--reference`.
 */

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "cache/opt_sim.hpp"
#include "cache/stack_sim.hpp"
#include "serve/client.hpp"
#include "study/sample_plan.hpp"
#include "study/sample_study.hpp"
#include "trace/pipeline.hpp"
#include "trace/suite.hpp"

namespace {

using namespace atc;

int
gridDemo(const std::string &name, size_t count)
{
    auto addrs = trace::collectFilteredTrace(trace::benchmarkByName(name),
                                             count, 1);

    // Lossy-compress and regenerate.
    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossy;
    opt.lossy.interval_len = count / 100;
    opt.pipeline.buffer_addrs = count / 100;
    {
        core::AtcWriter writer(store, opt);
        writer.write(addrs.data(), addrs.size());
        writer.close();
    }
    std::vector<uint64_t> approx;
    approx.reserve(count);
    {
        core::AtcReader reader(store);
        approx = trace::collect(reader);
    }
    std::printf("%s: %zu addresses, lossy size %llu bytes "
                "(%.3f bits/address)\n\n",
                name.c_str(), addrs.size(),
                static_cast<unsigned long long>(store.totalBytes()),
                8.0 * store.totalBytes() / addrs.size());

    // Miss-ratio grid: one stack-simulator pass per set count yields
    // every LRU associativity at once (Cheetah's trick); the OPT
    // column (Belady/MIN) bounds how much of each miss curve is
    // replacement-policy artefact.
    const uint32_t max_ways = 32;
    std::printf("%6s %5s | %10s %10s %10s | %10s\n", "sets", "ways",
                "exact LRU", "lossy LRU", "delta", "exact OPT");
    for (uint32_t sets : {256u, 1024u, 4096u}) {
        cache::StackSimulator exact(sets, max_ways);
        cache::StackSimulator lossy(sets, max_ways);
        for (uint64_t a : addrs)
            exact.access(a);
        for (uint64_t a : approx)
            lossy.access(a);
        for (uint32_t ways : {1u, 2u, 4u, 8u, 16u, 32u}) {
            double e = exact.missRatio(ways);
            double l = lossy.missRatio(ways);
            double o = cache::simulateOpt(addrs, sets, ways).missRatio();
            std::printf("%6u %5u | %10.4f %10.4f %+10.4f | %10.4f\n",
                        sets, ways, e, l, l - e, o);
        }
        std::printf("\n");
    }
    return 0;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "cache_study: %s\n", msg.c_str());
    std::exit(1);
}

bool
parseSets(const std::string &text, std::vector<uint32_t> &out)
{
    out.clear();
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        char *end = nullptr;
        std::string item = text.substr(pos, comma - pos);
        unsigned long v = std::strtoul(item.c_str(), &end, 10);
        if (item.empty() || end == item.c_str() || *end != '\0' ||
            v == 0)
            return false;
        out.push_back(static_cast<uint32_t>(v));
        pos = comma + 1;
    }
    return !out.empty();
}

struct SampleArgs
{
    std::string dir;
    std::string plan = "systematic";
    std::string host;
    uint16_t port = 0;
    std::string name;
    study::StudyOptions opt;
    bool reference = false;
    std::string json_path;
};

SampleArgs
parseSampleArgs(int argc, char **argv)
{
    SampleArgs args;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value after " + a);
            return argv[++i];
        };
        if (a == "--plan") {
            args.plan = next();
        } else if (a == "--connect") {
            std::string hp = next();
            size_t colon = hp.rfind(':');
            if (colon == std::string::npos)
                die("--connect wants HOST:PORT");
            args.host = hp.substr(0, colon);
            args.port = static_cast<uint16_t>(
                std::strtoul(hp.c_str() + colon + 1, nullptr, 10));
        } else if (a == "--name") {
            args.name = next();
        } else if (a == "--sets") {
            if (!parseSets(next(), args.opt.sets))
                die("--sets wants a comma-separated list, e.g. 64,256");
        } else if (a == "--ways") {
            args.opt.max_ways =
                static_cast<uint32_t>(std::strtoul(next().c_str(),
                                                   nullptr, 10));
        } else if (a == "--block-shift") {
            args.opt.block_shift =
                static_cast<uint32_t>(std::strtoul(next().c_str(),
                                                   nullptr, 10));
        } else if (a == "--threads") {
            args.opt.threads = std::strtoul(next().c_str(), nullptr, 10);
        } else if (a == "--depth") {
            args.opt.pipeline_depth =
                std::strtoul(next().c_str(), nullptr, 10);
        } else if (a == "--fetch") {
            std::string mode = next();
            if (mode == "range")
                args.opt.fetch = study::Fetch::kRange;
            else if (mode == "seek")
                args.opt.fetch = study::Fetch::kSeek;
            else
                die("--fetch wants range or seek");
        } else if (a == "--reference") {
            args.reference = true;
        } else if (a == "--json") {
            args.json_path = next();
        } else if (!a.empty() && a[0] != '-' && args.dir.empty()) {
            args.dir = a;
        } else {
            die("unknown option '" + a + "'");
        }
    }
    bool served = !args.host.empty();
    if (served && args.name.empty())
        die("--connect needs --name CONTAINER");
    if (!served && args.dir.empty())
        die("--sample wants a container directory (or --connect)");
    if (args.reference && args.dir.empty())
        die("--reference needs a local container directory");
    return args;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

int
sampleStudy(int argc, char **argv)
{
    SampleArgs args = parseSampleArgs(argc, argv);
    bool served = !args.host.empty();

    std::shared_ptr<const core::AtcIndex> index;
    if (!args.dir.empty()) {
        auto opened = core::AtcIndex::open(args.dir);
        if (!opened.ok())
            die(opened.status().message());
        index = opened.value();
    }

    uint64_t records = 0;
    if (index != nullptr) {
        records = index->size();
    } else {
        auto client = serve::ServeClient::connect(args.host, args.port);
        if (!client.ok())
            die(client.status().message());
        auto remote = client.value().open(args.name);
        if (!remote.ok())
            die(remote.status().message());
        records = remote.value().records;
        client.value().closeHandle(remote.value().handle);
    }

    auto plan = study::SamplePlan::build(args.plan, records);
    if (!plan.ok())
        die(plan.status().message());

    auto result =
        served ? study::runSampleStudyServed(args.host, args.port,
                                             args.name, plan.value(),
                                             args.opt)
               : study::runSampleStudy(index, plan.value(), args.opt);
    if (!result.ok())
        die(result.status().message());
    const study::StudyResult &study = result.value();

    bool have_ref = false;
    study::ReferenceResult ref;
    if (args.reference) {
        auto r = study::runFullReference(index, args.opt);
        if (!r.ok())
            die(r.status().message());
        ref = std::move(r.value());
        have_ref = true;
    }

    // Decoded fraction: sampled decode bytes over the full-pass decode
    // bytes when a reference ran, else over the raw record payload
    // (8 bytes per record — close for lossless, an estimate for lossy).
    double decoded_frac = -1;
    if (study.decoded_bytes >= 0) {
        double full = have_ref && ref.decoded_bytes > 0
                          ? static_cast<double>(ref.decoded_bytes)
                          : 8.0 * static_cast<double>(records);
        if (full > 0)
            decoded_frac =
                static_cast<double>(study.decoded_bytes) / full;
    }

    std::string json;
    json += "{\n";
    appendf(json, "  \"atc_sample_study\": 1,\n");
    appendf(json, "  \"backend\": \"%s\",\n",
            served ? "served" : "local");
    appendf(json, "  \"container\": \"%s\",\n",
            served ? args.name.c_str() : args.dir.c_str());
    appendf(json, "  \"plan\": \"%s\",\n", study.plan.c_str());
    appendf(json, "  \"fetch\": \"%s\",\n",
            args.opt.fetch == study::Fetch::kRange ? "range" : "seek");
    appendf(json, "  \"records\": %" PRIu64 ",\n", records);
    appendf(json, "  \"windows\": %zu,\n", study.windows.size());
    appendf(json, "  \"measured_records\": %" PRIu64 ",\n",
            study.measured_records);
    appendf(json, "  \"fetched_records\": %" PRIu64 ",\n",
            study.fetched_records);
    appendf(json, "  \"seconds\": %.6f,\n", study.seconds);
    appendf(json, "  \"decoded_bytes\": %lld,\n",
            static_cast<long long>(study.decoded_bytes));
    appendf(json, "  \"decoded_frames\": %lld,\n",
            static_cast<long long>(study.decoded_frames));
    appendf(json, "  \"decoded_frac\": %.6f,\n", decoded_frac);
    appendf(json, "  \"windows_crc\": \"%08x\",\n", study.windowsCrc());
    appendf(json, "  \"hist_crc\": \"%08x\",\n", study.histCrc());
    json += "  \"window_crcs\": [";
    for (size_t i = 0; i < study.windows.size(); ++i)
        appendf(json, "%s\"%08x\"", i == 0 ? "" : ", ",
                study.windows[i].crc);
    json += "],\n";

    json += "  \"estimates\": [\n";
    bool first_row = true;
    for (size_t s = 0; s < study.sets.size(); ++s) {
        for (uint32_t w = 1; w <= study.max_ways; w *= 2) {
            study::Estimate e = study.estimate(s, w);
            if (!first_row)
                json += ",\n";
            first_row = false;
            appendf(json,
                    "    {\"sets\": %u, \"ways\": %u, "
                    "\"ratio\": %.6f, \"ci95\": %.6f",
                    study.sets[s], w, e.ratio, e.ci95);
            if (have_ref) {
                double r = ref.missRatio(s, w);
                appendf(json, ", \"reference\": %.6f, \"error\": %.6f",
                        r, std::fabs(e.ratio - r));
            }
            json += "}";
        }
    }
    json += "\n  ]";

    if (have_ref) {
        appendf(json, ",\n  \"max_error\": %.6f",
                study::worstAbsError(study, ref));
        appendf(json,
                ",\n  \"reference\": {\"seconds\": %.6f, "
                "\"decoded_bytes\": %lld, \"speedup\": %.3f}",
                ref.seconds, static_cast<long long>(ref.decoded_bytes),
                study.seconds > 0 ? ref.seconds / study.seconds : 0.0);
    }
    json += "\n}\n";

    std::fputs(json.c_str(), stdout);
    if (!args.json_path.empty()) {
        std::FILE *f = std::fopen(args.json_path.c_str(), "w");
        if (f == nullptr)
            die("cannot write " + args.json_path);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--sample") == 0)
        return sampleStudy(argc, argv);

    std::string name = argc > 1 ? argv[1] : "470.lbm";
    size_t count = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                            : 2'000'000;
    return gridDemo(name, count);
}

/**
 * @file
 * atcbench: the end-to-end benchmark of the ATC library.
 *
 *   atcbench --workload archive|serve_hot|sample_scan --seed N
 *            --seconds S --trace 0|1 --work DIR [--trace-file PATH]
 *
 * Prints every metric of the workload as `name value unit`, then, as
 * the last line, one JSON object with the verdict and the metrics of
 * this run kind: end-to-end metrics untraced, per-layer metrics traced
 * (see README.md). Exits 1 when any output fails verification.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: atcbench --workload archive|serve_hot|sample_scan "
                 "--seed N --seconds S --trace 0|1 --work DIR "
                 "[--trace-file PATH]\n");
    return 2;
}

/** Nanoseconds one open/close span pair costs the traced run. */
double
spanCostNs()
{
    constexpr int kProbe = 200'000;
    Tracer probe(true);
    uint64_t t0 = nowNs();
    for (int i = 0; i < kProbe; ++i) {
        probe.open("probe");
        probe.close();
    }
    return double(nowNs() - t0) / kProbe;
}

void
printReport(const Report &rep, bool traced)
{
    for (const Report::Metric &m : rep.metrics)
        std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    Report::Kind want =
        traced ? Report::Kind::kLayer : Report::Kind::kEndToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    const char *sep = "";
    for (const Report::Metric &m : rep.metrics) {
        if (m.kind != want)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string trace_file;
    bool have_workload = false, have_work = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload") {
            args.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(val.c_str());
        } else if (flag == "--trace") {
            args.trace = val == "1";
        } else if (flag == "--work") {
            args.work = val;
            have_work = true;
        } else if (flag == "--trace-file") {
            trace_file = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_workload || !have_work || args.seconds <= 0)
        return usage();

    void (*run)(const Args &, Tracer &, Report &) = nullptr;
    if (args.workload == "archive")
        run = runArchive;
    else if (args.workload == "serve_hot")
        run = runServeHot;
    else if (args.workload == "sample_scan")
        run = runSampleScan;
    else
        return usage();

    std::filesystem::create_directories(args.work);
    Tracer tr(args.trace);
    Report rep;
    uint64_t t0 = nowNs();
    try {
        run(args, tr, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "FATAL: %s\n", e.what());
        return 1;
    }
    double wall = since(t0);

    rep.e2e("peak_rss_mb", peakRssMb(), "MiB");
    rep.note("error_frac",
             double(rep.failed) / double(std::max<uint64_t>(1, rep.attempted)),
             "ratio");
    if (tr.on()) {
        // Self time of the layers every workload enters goes into the
        // result; serve and study, which one workload each enters, are
        // printed only.
        for (const auto &[layer, ns] : selfTimeByLayer(tr.spans())) {
            std::string name = "self." + layer + "_s";
            if (layer == "serve" || layer == "study")
                rep.note(name, double(ns) * 1e-9, "s");
            else
                rep.layer(name, double(ns) * 1e-9, "s");
        }
        rep.layer("trace.overhead_frac",
                  double(tr.spans().size()) * spanCostNs() / (wall * 1e9),
                  "ratio");
        rep.note("trace.spans", double(tr.spans().size()), "count");
        if (!trace_file.empty() && !tr.writeChromeJson(trace_file))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         trace_file.c_str());
    }
    printReport(rep, args.trace);
    return rep.correct ? 0 : 1;
}

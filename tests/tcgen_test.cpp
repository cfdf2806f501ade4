/**
 * @file
 * Tests for the TCgen/VPC-style baseline trace compressor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "atc/atc.hpp"
#include "tcgen/corpus.hpp"
#include "tcgen/tcgen.hpp"
#include "trace/suite.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

tcg::TcgenConfig
smallConfig()
{
    tcg::TcgenConfig cfg;
    cfg.log2_lines = 12; // keep test memory small
    return cfg;
}

TEST(PredictorBank, PaperSpecSlotCount)
{
    // DFCM3[2], FCM3[3], FCM2[3], FCM1[3] -> 11 prediction slots.
    tcg::PredictorBank bank(smallConfig());
    EXPECT_EQ(bank.slots(), 11);
}

TEST(PredictorBank, MemoryAccounting)
{
    tcg::TcgenConfig cfg = smallConfig();
    tcg::PredictorBank bank(cfg);
    // 11 slots x 2^12 lines x 8 bytes.
    EXPECT_EQ(bank.memoryBytes(), 11ull * (1ull << 12) * 8);
}

TEST(PredictorBank, RejectsEmptyBank)
{
    tcg::TcgenConfig cfg;
    cfg.dfcm3_ways = cfg.fcm3_ways = cfg.fcm2_ways = cfg.fcm1_ways = 0;
    EXPECT_THROW(tcg::PredictorBank bank(cfg), util::Error);
}

TEST(Tcgen, EmptyTrace)
{
    auto r = tcg::tcgenCompress({}, smallConfig());
    EXPECT_EQ(tcg::tcgenDecompress(r, smallConfig()), std::vector<uint64_t>{});
}

class TcgenRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(TcgenRoundTrip, LosslessOnVariedContent)
{
    util::Rng rng(GetParam());
    std::vector<uint64_t> trace;
    switch (GetParam()) {
      case 0: // strided
        for (int i = 0; i < 50000; ++i)
            trace.push_back(0x1000 + i * 3);
        break;
      case 1: // random
        for (int i = 0; i < 50000; ++i)
            trace.push_back(rng.next());
        break;
      case 2: // repeating cycle
        for (int r = 0; r < 5; ++r)
            for (int i = 0; i < 10000; ++i)
                trace.push_back((i * 2654435761u) & 0xFFFFF);
        break;
      default: // mixed
        for (int i = 0; i < 50000; ++i)
            trace.push_back(rng.below(4) ? 0x4000 + i : rng.next() >> 20);
        break;
    }
    auto compressed = tcg::tcgenCompress(trace, smallConfig());
    EXPECT_EQ(tcg::tcgenDecompress(compressed, smallConfig()), trace);
}

INSTANTIATE_TEST_SUITE_P(Contents, TcgenRoundTrip,
                         testing::Values(0, 1, 2, 3));

TEST(Tcgen, StridedTraceCompressesExtremely)
{
    std::vector<uint64_t> trace;
    for (int i = 0; i < 100000; ++i)
        trace.push_back(0x1000 + i);
    util::CountingSink code_sink, data_sink;
    tcg::TcgenEncoder enc(smallConfig(), code_sink, data_sink);
    for (uint64_t v : trace)
        enc.code(v);
    enc.finish();
    // DFCM locks on after a couple of values: nearly no escapes, and
    // the code stream is a constant byte that compresses away.
    EXPECT_LT(enc.escapes(), 10u);
    EXPECT_LT(code_sink.count() + data_sink.count(), 2000u);
}

TEST(Tcgen, RepeatingCycleLearnedByFcm)
{
    // A pseudo-random cycle: unpredictable by stride, but FCM replays
    // it after one pass.
    std::vector<uint64_t> cycle(20000);
    util::Rng rng(5);
    for (auto &v : cycle)
        v = rng.next() >> 16;
    std::vector<uint64_t> trace;
    for (int r = 0; r < 4; ++r)
        trace.insert(trace.end(), cycle.begin(), cycle.end());

    util::CountingSink code_sink, data_sink;
    tcg::TcgenConfig cfg = smallConfig();
    cfg.log2_lines = 16;
    tcg::TcgenEncoder enc(cfg, code_sink, data_sink);
    for (uint64_t v : trace)
        enc.code(v);
    enc.finish();
    // Only the first pass escapes.
    EXPECT_LT(enc.escapes(), cycle.size() + 200);
}

TEST(Tcgen, EscapeCountMatchesUnpredictability)
{
    util::Rng rng(6);
    std::vector<uint64_t> trace(20000);
    for (auto &v : trace)
        v = rng.next();
    util::CountingSink code_sink, data_sink;
    tcg::TcgenEncoder enc(smallConfig(), code_sink, data_sink);
    for (uint64_t v : trace)
        enc.code(v);
    enc.finish();
    // 64-bit random values: essentially everything escapes.
    EXPECT_GT(enc.escapes(), trace.size() * 95 / 100);
}

TEST(Tcgen, RoundTripOnSyntheticBenchmark)
{
    auto trace = trace::collectFilteredTrace(
        trace::benchmarkByName("456.hmmer"), 30000, 1);
    tcg::TcgenConfig cfg = smallConfig();
    cfg.log2_lines = 16;
    auto compressed = tcg::tcgenCompress(trace, cfg);
    EXPECT_EQ(tcg::tcgenDecompress(compressed, cfg), trace);
    // Regular benchmark: far below raw 64 bits/address.
    double bpa = 8.0 * compressed.totalBytes() / trace.size();
    EXPECT_LT(bpa, 24.0);
}

TEST(Tcgen, DecoderRejectsInvalidCode)
{
    // Hand-craft a code stream with an out-of-range predictor code.
    std::vector<uint8_t> code_bytes, data_bytes;
    util::VectorSink code_sink(code_bytes), data_sink(data_bytes);
    {
        comp::StreamCompressor cs(comp::codecByName("bwc"), code_sink);
        uint8_t bad = 200; // valid codes are 0..10 and 255
        cs.write(&bad, 1);
        cs.finish();
        comp::StreamCompressor ds(comp::codecByName("bwc"), data_sink);
        ds.finish();
    }
    util::MemorySource code_src(code_bytes), data_src(data_bytes);
    tcg::TcgenDecoder dec(smallConfig(), code_src, data_src);
    uint64_t v;
    EXPECT_THROW(dec.decode(&v), util::Error);
}

TEST(Tcgen, TruncatedStreamIsAnErrorNotAShorterTrace)
{
    // "store" has no per-block checksum, so only the framing can tell
    // a cut stream from a short one. The 50,000-byte code stream is 13
    // frames of 4096 bytes; cut it after 3 whole frames, or inside its
    // frame index (the last frame's CRC-32).
    std::vector<uint64_t> trace;
    util::Rng rng(17);
    for (int i = 0; i < 50'000; ++i)
        trace.push_back(i % 3 == 0 ? rng.next() : 0x1000 + 64 * (i % 97));
    tcg::TcgenConfig cfg = smallConfig();
    cfg.codec = "store";
    cfg.codec_block = 4096;
    const tcg::TcgenResult whole = tcg::tcgenCompress(trace, cfg);
    ASSERT_EQ(tcg::tcgenDecompress(whole, cfg), trace);

    util::MemorySource scan(whole.code_bytes);
    const comp::StreamLayout layout = comp::scanSeekableStream(scan);
    ASSERT_EQ(layout.frames.size(), 13u);
    for (size_t keep : {size_t(layout.comp_starts[3]),
                        whole.code_bytes.size() - 4}) {
        tcg::TcgenResult cut = whole;
        cut.code_bytes.resize(keep);
        EXPECT_THROW(tcg::tcgenDecompress(cut, cfg), util::Error)
            << "code stream cut to " << keep << " bytes";
    }
    tcg::TcgenResult cut = whole;
    cut.data_bytes.resize(cut.data_bytes.size() - 4);
    EXPECT_THROW(tcg::tcgenDecompress(cut, cfg), util::Error);
}

TEST(Tcgen, AlternativeCodecBackEnd)
{
    std::vector<uint64_t> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back(0x8000 + i * 7);
    tcg::TcgenConfig cfg = smallConfig();
    cfg.codec = "lzh";
    auto compressed = tcg::tcgenCompress(trace, cfg);
    EXPECT_EQ(tcg::tcgenDecompress(compressed, cfg), trace);
}

// --- Corpus generators (tcgen/corpus.hpp) -------------------------------

std::vector<uint64_t>
drain(tcg::CorpusSource &src)
{
    std::vector<uint64_t> out;
    uint64_t buf[1013]; // odd size: exercises partial batches
    size_t got;
    while ((got = src.read(buf, 1013)) != 0)
        out.insert(out.end(), buf, buf + got);
    return out;
}

class CorpusSpec : public testing::TestWithParam<const char *>
{
};

TEST_P(CorpusSpec, DeterministicUnderFixedSeed)
{
    auto a = tcg::makeCorpusSource(GetParam(), 20000, 7);
    auto b = tcg::makeCorpusSource(GetParam(), 20000, 7);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_EQ(drain(*a.value()), drain(*b.value()));
}

TEST_P(CorpusSpec, DifferentSeedsDiverge)
{
    // Only the randomized generators consume the seed: stream sweeps,
    // fixed-stride chases and rr merges are deterministic by design.
    std::string spec(GetParam());
    bool seeded = spec.rfind("gcphase", 0) == 0 ||
                  spec.find("mode=bursty") != std::string::npos ||
                  (spec.rfind("ptrchase", 0) == 0 &&
                   spec.find("stride=") == std::string::npos) ||
                  spec.find("stride=rand") != std::string::npos;
    if (!seeded)
        GTEST_SKIP() << "generator is seed-independent by design";
    auto a = tcg::makeCorpusSource(GetParam(), 20000, 7);
    auto b = tcg::makeCorpusSource(GetParam(), 20000, 8);
    EXPECT_NE(drain(*a.value()), drain(*b.value()));
}

TEST_P(CorpusSpec, ProducesExactlyCountRecords)
{
    auto src = tcg::makeCorpusSource(GetParam(), 12345, 1);
    ASSERT_TRUE(src.ok()) << src.status().message();
    EXPECT_EQ(src.value()->count(), 12345u);
    EXPECT_EQ(drain(*src.value()).size(), 12345u);
    // A drained source stays dry.
    uint64_t v;
    EXPECT_EQ(src.value()->read(&v, 1), 0u);
}

TEST_P(CorpusSpec, DescribeRoundTrips)
{
    // parse -> describe -> parse: the canonical spec reproduces the
    // generator exactly (same stream), and re-describing is stable.
    auto a = tcg::makeCorpusSource(GetParam(), 20000, 3);
    ASSERT_TRUE(a.ok()) << a.status().message();
    std::string canonical = a.value()->describe();
    auto b = tcg::makeCorpusSource(canonical, 20000, 3);
    ASSERT_TRUE(b.ok()) << "canonical spec '" << canonical
                        << "' rejected: " << b.status().message();
    EXPECT_EQ(b.value()->describe(), canonical);
    EXPECT_EQ(drain(*a.value()), drain(*b.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusSpec,
    testing::Values("ptrchase", "ptrchase:nodes=4k,stride=rand",
                    "ptrchase:nodes=1k,stride=128", "gcphase",
                    "gcphase:heap=1m,mutator=8k,collector=4k", "stream",
                    "stream:footprint=1m,stride=256", "multicore",
                    "multicore:cores=3,mode=bursty,burst=8,footprint=1m",
                    "queue", "queue:producers=2,depth=64"));

TEST(Corpus, CatalogSpecsAllParse)
{
    for (const std::string &spec : tcg::corpusCatalog()) {
        auto src = tcg::makeCorpusSource(spec, 1000, 1);
        EXPECT_TRUE(src.ok())
            << spec << ": " << src.status().message();
    }
}

TEST(Corpus, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"nosuchgen", "ptrchase:nodes=0", "ptrchase:stride=100",
          "ptrchase:bogus=1", "gcphase:heap=100",
          "stream:footprint=1k,stride=1m",
          "multicore:cores=1", "multicore:mode=zigzag",
          "multicore:footprint=2t", "ptrchase:nodes",
          "queue:depth=1", "queue:producers=2000", "queue:slots=4"}) {
        auto src = tcg::makeCorpusSource(bad, 1000, 1);
        EXPECT_FALSE(src.ok()) << bad << " should have been rejected";
    }
}

TEST(Corpus, PtrChaseRandomVisitsEveryNodeOncePerLap)
{
    // Sattolo permutation: one full cycle covers all nodes exactly once.
    constexpr uint64_t kNodes = 512;
    auto src = tcg::makeCorpusSource("ptrchase:nodes=512,stride=rand",
                                     kNodes, 11);
    auto lap = drain(*src.value());
    std::map<uint64_t, int> seen;
    for (uint64_t a : lap)
        seen[a]++;
    EXPECT_EQ(seen.size(), kNodes);
    for (const auto &[addr, times] : seen) {
        EXPECT_EQ(times, 1) << "node visited twice within one lap";
        EXPECT_EQ(addr % 64, 0u) << "node addresses are line-aligned";
    }
}

TEST(Corpus, GcPhaseAlternatesSweepAndScatter)
{
    // During a collector phase the stream is a pure sequential sweep;
    // detect it by counting +64 deltas over phase-sized windows.
    auto src = tcg::makeCorpusSource(
        "gcphase:heap=256k,mutator=2048,collector=2048", 16384, 5);
    auto trace = drain(*src.value());
    size_t window = 2048;
    std::vector<double> seq_fraction;
    for (size_t w = 0; w + window <= trace.size(); w += window) {
        size_t seq = 0;
        for (size_t i = w + 1; i < w + window; ++i)
            seq += (trace[i] - trace[i - 1] == 64);
        seq_fraction.push_back(double(seq) / double(window - 1));
    }
    double lo = 1.0, hi = 0.0;
    for (double f : seq_fraction) {
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    EXPECT_GT(hi, 0.95) << "no collector-like sweep window found";
    EXPECT_LT(lo, 0.75) << "no mutator-like scattered window found";
}

TEST(Corpus, MulticoreRoundRobinInvariants)
{
    // rr merge, burst b: per-core record counts never differ by more
    // than one full burst, every address maps to a valid core, and the
    // per-core sub-streams are strided sweeps within the footprint.
    constexpr uint64_t kCount = 60000;
    constexpr uint32_t kCores = 5;
    constexpr uint64_t kBurst = 32;
    auto src = tcg::makeCorpusSource(
        "multicore:cores=5,mode=rr,burst=32,footprint=1m", kCount, 2);
    ASSERT_TRUE(src.ok()) << src.status().message();
    auto trace = drain(*src.value());
    ASSERT_EQ(trace.size(), kCount);

    uint64_t per_core[kCores] = {};
    uint32_t turn = 0; // rr: bursts arrive in strict core order
    for (size_t i = 0; i < trace.size(); i += kBurst) {
        uint32_t core = tcg::multicoreCoreOf(trace[i]);
        ASSERT_LT(core, kCores);
        EXPECT_EQ(core, (turn + 1) % kCores) << "burst order broken";
        turn = core;
        for (size_t j = i; j < std::min(trace.size(), i + kBurst); ++j) {
            EXPECT_EQ(tcg::multicoreCoreOf(trace[j]), core)
                << "burst " << i << " mixes cores";
            EXPECT_LT(trace[j] % tcg::kMulticoreCoreSpan, 1u << 20)
                << "address outside the declared footprint";
            ++per_core[core];
        }
    }
    uint64_t lo = kCount, hi = 0;
    for (uint64_t c : per_core) {
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_LE(hi - lo, kBurst) << "rr merge is unfair beyond one burst";
}

TEST(Corpus, MulticoreBurstyCoversAllCores)
{
    auto src = tcg::makeCorpusSource(
        "multicore:cores=4,mode=bursty,burst=16,footprint=1m", 40000, 9);
    auto trace = drain(*src.value());
    uint64_t per_core[4] = {};
    for (uint64_t a : trace) {
        uint32_t core = tcg::multicoreCoreOf(a);
        ASSERT_LT(core, 4u);
        ++per_core[core];
    }
    for (uint64_t c : per_core)
        EXPECT_GT(c, 40000u / 16) << "a core is starved";
}

TEST(Corpus, QueueAlternatesFillAndDrainPhases)
{
    // depth=16, 2 producers: a fill phase is 16 produces of 3 records
    // (tail counter, slot, producer stamp), a drain phase 16 consumes
    // of 2 (head counter, slot). Verify the structure of the first two
    // phases record by record, classifying by the address layout.
    constexpr uint64_t kBase = 0xC0000000ull;
    constexpr uint64_t kDepth = 16;
    auto src = tcg::makeCorpusSource("queue:producers=2,depth=16",
                                     16 * 3 + 16 * 2, 9);
    ASSERT_TRUE(src.ok());
    auto trace = drain(*src.value());
    ASSERT_EQ(trace.size(), 16u * 3 + 16u * 2);

    auto head = kBase;
    auto tail = kBase + 64;
    auto slot = [&](uint64_t s) { return kBase + (2 + s % kDepth) * 64; };
    auto stamp_floor = kBase + (2 + kDepth) * 64;

    size_t i = 0;
    for (uint64_t s = 0; s < kDepth; ++s) {  // fill phase
        EXPECT_EQ(trace[i++], tail);
        EXPECT_EQ(trace[i++], slot(s));
        EXPECT_GE(trace[i], stamp_floor);    // some producer's stamp
        EXPECT_LT(trace[i++], stamp_floor + 2 * 64);
    }
    for (uint64_t s = 0; s < kDepth; ++s) {  // drain phase
        EXPECT_EQ(trace[i++], head);
        EXPECT_EQ(trace[i++], slot(s));
    }
}

TEST(Corpus, QueueIsDeterministicPerSeed)
{
    auto a = tcg::makeCorpusSource("queue:producers=4,depth=64", 20000, 5);
    auto b = tcg::makeCorpusSource("queue:producers=4,depth=64", 20000, 5);
    auto c = tcg::makeCorpusSource("queue:producers=4,depth=64", 20000, 6);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    auto ta = drain(*a.value());
    EXPECT_EQ(ta, drain(*b.value()));
    EXPECT_NE(ta, drain(*c.value()));  // producer choice is seeded
}

TEST(Corpus, GeneratorsRoundTripThroughAtcLosslessly)
{
    // The corpus exists to feed the compressor: every family must
    // survive a lossless container round trip bit-exactly.
    for (const std::string &spec : tcg::corpusCatalog()) {
        auto src = tcg::makeCorpusSource(spec, 30000, 1);
        ASSERT_TRUE(src.ok()) << src.status().message();
        auto trace = drain(*src.value());

        core::MemoryStore store;
        core::AtcOptions opt;
        opt.mode = core::Mode::Lossless;
        opt.pipeline.buffer_addrs = 4096;
        core::AtcWriter writer(store, opt);
        writer.write(trace.data(), trace.size());
        writer.close();

        core::AtcReader reader(store);
        std::vector<uint64_t> back(trace.size());
        size_t got = 0;
        while (got < back.size()) {
            size_t n = reader.read(back.data() + got, back.size() - got);
            if (n == 0)
                break;
            got += n;
        }
        EXPECT_EQ(back, trace) << spec;
    }
}

} // namespace
} // namespace atc

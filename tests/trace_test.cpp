/**
 * @file
 * Tests for the trace substrate: generators, the synthetic SPEC-like
 * suite and statistics.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/generators.hpp"
#include "trace/stats.hpp"
#include "trace/suite.hpp"

namespace atc {
namespace {

TEST(SequentialStream, WrapsAtFootprint)
{
    trace::SequentialStream g(1000, 64, 16);
    EXPECT_EQ(g.next(), 1000u);
    EXPECT_EQ(g.next(), 1016u);
    EXPECT_EQ(g.next(), 1032u);
    EXPECT_EQ(g.next(), 1048u);
    EXPECT_EQ(g.next(), 1000u); // wrapped
}

TEST(LoopNest, SweepsInnerBlockBeforeAdvancing)
{
    trace::LoopNest g(0, 64, 32, 2, 16);
    // Inner block [0,32) swept twice at stride 16, then window moves.
    EXPECT_EQ(g.next(), 0u);
    EXPECT_EQ(g.next(), 16u);
    EXPECT_EQ(g.next(), 0u);
    EXPECT_EQ(g.next(), 16u);
    EXPECT_EQ(g.next(), 32u);
    EXPECT_EQ(g.next(), 48u);
    EXPECT_EQ(g.next(), 32u);
    EXPECT_EQ(g.next(), 48u);
    EXPECT_EQ(g.next(), 0u); // footprint wrapped
}

TEST(RandomAccess, StaysInFootprintAndAligned)
{
    trace::RandomAccess g(0x10000, 4096, 64, 7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t a = g.next();
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x10000u + 4096);
        EXPECT_EQ(a % 64, 0u);
    }
}

TEST(PointerChase, VisitsEveryNodeOncePerCycle)
{
    trace::PointerChase g(0, 97, 3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 97; ++i)
        seen.insert(g.next());
    EXPECT_EQ(seen.size(), 97u); // full cycle, no short loops
    // Second cycle repeats the same sequence.
    trace::PointerChase g2(0, 97, 3);
    std::vector<uint64_t> first, second;
    for (int i = 0; i < 97; ++i)
        first.push_back(g2.next());
    for (int i = 0; i < 97; ++i)
        second.push_back(g2.next());
    EXPECT_EQ(first, second);
}

TEST(RoundRobin, DeterministicBursts)
{
    std::vector<trace::GeneratorPtr> children;
    children.push_back(std::make_unique<trace::SequentialStream>(0, 1 << 20, 1));
    children.push_back(
        std::make_unique<trace::SequentialStream>(1 << 30, 1 << 20, 1));
    trace::RoundRobin g(std::move(children), {2, 1});
    EXPECT_LT(g.next(), 1u << 30);
    EXPECT_LT(g.next(), 1u << 30);
    EXPECT_GE(g.next(), 1u << 30);
    EXPECT_LT(g.next(), 1u << 30);
}

TEST(Phased, CyclesThroughPhases)
{
    std::vector<trace::Phased::Phase> phases;
    phases.push_back({std::make_unique<trace::SequentialStream>(0, 1024, 1),
                      3});
    phases.push_back(
        {std::make_unique<trace::SequentialStream>(1 << 20, 1024, 1), 2});
    trace::Phased g(std::move(phases));
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 3; ++i)
            EXPECT_LT(g.next(), 1u << 20) << "cycle " << cycle;
        for (int i = 0; i < 2; ++i)
            EXPECT_GE(g.next(), 1u << 20) << "cycle " << cycle;
    }
}

TEST(Drift, MovesToFreshRegions)
{
    trace::Drift g(0, 1 << 16, 100, 8, 2, 5);
    std::set<uint64_t> regions;
    for (int i = 0; i < 1000; ++i)
        regions.insert(g.next() >> 16);
    EXPECT_GE(regions.size(), 8u); // 1000 accesses / 100 per region
}

TEST(CodeStream, StaysInCodeRegion)
{
    trace::CodeStream g(0x400000, 8, 8192, 100, 3);
    for (int i = 0; i < 1000; ++i) {
        uint64_t a = g.next();
        EXPECT_GE(a, 0x400000u);
        EXPECT_LT(a, 0x400000u + 8 * 8192);
    }
}

TEST(Suite, HasTwentyTwoBenchmarks)
{
    const auto &suite = trace::syntheticSuite();
    ASSERT_EQ(suite.size(), 22u);
    EXPECT_EQ(suite.front().name, "400.perlbench");
    EXPECT_EQ(suite.back().name, "483.xalancbmk");
    std::set<std::string> names;
    for (const auto &b : suite)
        names.insert(b.name);
    EXPECT_EQ(names.size(), 22u);
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(trace::benchmarkByName("470.lbm").klass, "stream");
    EXPECT_THROW(trace::benchmarkByName("999.nothing"), util::Error);
}

TEST(Suite, CoversBehaviourClasses)
{
    std::set<std::string> classes;
    for (const auto &b : trace::syntheticSuite())
        classes.insert(b.klass);
    EXPECT_TRUE(classes.count("stream"));
    EXPECT_TRUE(classes.count("random"));
    EXPECT_TRUE(classes.count("regular"));
    EXPECT_TRUE(classes.count("unstable"));
    EXPECT_TRUE(classes.count("mixed"));
}

TEST(Suite, FilteredTraceIsDeterministic)
{
    const auto &b = trace::benchmarkByName("433.milc");
    auto t1 = trace::collectFilteredTrace(b, 5000, 42);
    auto t2 = trace::collectFilteredTrace(b, 5000, 42);
    EXPECT_EQ(t1, t2);
    auto t3 = trace::collectFilteredTrace(b, 5000, 43);
    EXPECT_NE(t1, t3);
}

TEST(Suite, FilteredAddressesAreBlockAddresses)
{
    // Cache-filtered traces carry block addresses: 6 MSBs null (the
    // paper's format) and plausible magnitudes.
    const auto &b = trace::benchmarkByName("429.mcf");
    auto t = trace::collectFilteredTrace(b, 2000, 1);
    ASSERT_EQ(t.size(), 2000u);
    for (uint64_t a : t)
        EXPECT_EQ(a >> 58, 0u);
}

class SuiteClassBehaviour : public testing::TestWithParam<const char *>
{
};

TEST_P(SuiteClassBehaviour, StreamTracesAreSequential)
{
    const auto &b = trace::benchmarkByName(GetParam());
    auto t = trace::collectFilteredTrace(b, 20000, 1);
    // Stream-class traces are dominated by per-stream block-sequential
    // misses; with several lock-step streams, consecutive trace entries
    // rotate between regions, so look for the +1 successor within a
    // short window rather than strictly adjacent.
    size_t near_sequential = 0;
    for (size_t i = 1; i < t.size(); ++i) {
        size_t lo = i > 8 ? i - 8 : 0;
        for (size_t j = lo; j < i; ++j) {
            if (t[j] + 1 == t[i]) {
                ++near_sequential;
                break;
            }
        }
    }
    EXPECT_GT(static_cast<double>(near_sequential) / t.size(), 0.6)
        << b.name;
}

INSTANTIATE_TEST_SUITE_P(Streams, SuiteClassBehaviour,
                         testing::Values("410.bwaves", "433.milc",
                                         "462.libquantum", "470.lbm"));

TEST(Suite, RandomClassHasLargeUniqueFootprint)
{
    auto t = trace::collectFilteredTrace(
        trace::benchmarkByName("458.sjeng"), 20000, 1);
    auto stats = trace::computeStats(t);
    EXPECT_GT(stats.unique, 5000u);
    EXPECT_LT(stats.sequential_fraction, 0.3);
}

TEST(Suite, UnstableClassKeepsCreatingAddresses)
{
    // gcc-like drift: the second half of the trace touches blocks the
    // first half never saw.
    auto t = trace::collectFilteredTrace(trace::benchmarkByName("403.gcc"),
                                         40000, 1);
    std::set<uint64_t> first(t.begin(), t.begin() + 20000);
    size_t fresh = 0;
    for (size_t i = 20000; i < t.size(); ++i)
        fresh += !first.count(t[i]);
    EXPECT_GT(fresh, 5000u);
}

TEST(Stats, BasicProperties)
{
    std::vector<uint64_t> t{5, 6, 7, 5, 100};
    auto s = trace::computeStats(t);
    EXPECT_EQ(s.length, 5u);
    EXPECT_EQ(s.unique, 4u);
    EXPECT_EQ(s.min_addr, 5u);
    EXPECT_EQ(s.max_addr, 100u);
    EXPECT_DOUBLE_EQ(s.sequential_fraction, 0.5); // 6 and 7 follow +1
}

TEST(Stats, EntropyBounds)
{
    std::vector<uint64_t> same(100, 42);
    auto s = trace::computeStats(same);
    EXPECT_DOUBLE_EQ(s.totalPlaneEntropy(), 0.0);

    std::vector<uint64_t> spread;
    for (int i = 0; i < 256; ++i)
        spread.push_back(i);
    auto s2 = trace::computeStats(spread);
    EXPECT_NEAR(s2.plane_entropy[0], 8.0, 1e-9);
    EXPECT_NEAR(s2.plane_entropy[1], 0.0, 1e-9);
}

TEST(Stats, EmptyTrace)
{
    auto s = trace::computeStats({});
    EXPECT_EQ(s.length, 0u);
    EXPECT_EQ(s.unique, 0u);
}

} // namespace
} // namespace atc

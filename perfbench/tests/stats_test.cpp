// Tests of the benchmark's own arithmetic (src/stats.hpp). Plain
// checks that stay on in every build type; exits 1 on any failure.

#include <cmath>
#include <cstdio>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "stats_test.cpp:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(size_t n) // 1, 2, ..., n
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(double(i));
    return v;
}

void
testMedian()
{
    CHECK(median({}) == 0);
    CHECK(near(median({3, 1, 2}), 2));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
}

void
testPercentileCounts()
{
    // Nearest rank: p99 of 1..1000 is 990 with 10 samples beyond.
    Tail t = percentile(ramp(1000), 0.99);
    CHECK(near(t.value, 990));
    CHECK(t.count == 1000);
    CHECK(t.beyond == 10);

    // From 1000 samples the tail is p99 itself.
    t = tailPercentile(ramp(1000));
    CHECK(near(t.q, 0.99));
    CHECK(t.beyond == 10);

    // 500 samples: p99 has only 5 beyond, so p98 (10 beyond) is used.
    t = tailPercentile(ramp(500));
    CHECK(near(t.q, 0.98));
    CHECK(near(t.value, 490));
    CHECK(t.beyond == 10);

    // 100 samples: p90 is the highest with 10 beyond.
    t = tailPercentile(ramp(100));
    CHECK(near(t.q, 0.90));
    CHECK(t.beyond == 10);

    // Too few for any tail: never below the median.
    t = tailPercentile(ramp(12));
    CHECK(near(t.q, 0.5));
    CHECK(t.count == 12);

    // Order of the input does not matter.
    std::vector<double> rev = ramp(1000);
    std::reverse(rev.begin(), rev.end());
    CHECK(near(tailPercentile(rev).value, 990));
}

void
testOpenLoop()
{
    // 100 requests/s starting at t = 10 s: request 3 is due at 10.03 s.
    CHECK(near(dueTime(10.0, 100.0, 3), 10.03));

    // A generator that stalls 50 ms at request 2 sends requests 2..6
    // late; their latency counts from the due time, not the send time.
    std::vector<OpenLoopSample> s;
    for (size_t i = 0; i < 10; ++i) {
        double due = dueTime(0, 100.0, i); // every 10 ms
        double sent = (i >= 2 && due < 0.07) ? 0.07 : due;
        s.push_back({due, sent, sent + 0.001});
    }
    CHECK(near(s[0].lateness(), 0));
    CHECK(near(s[2].lateness(), 0.05));
    CHECK(near(s[6].lateness(), 0.01));
    CHECK(near(s[7].lateness(), 0));
    CHECK(near(s[2].latency(), 0.051));
    CHECK(near(s[9].latency(), 0.001));
    // A response can never make a request early.
    OpenLoopSample early{1.0, 0.5, 1.2};
    CHECK(near(early.lateness(), 0));
}

void
testSelfTime()
{
    // root [0,100) with children [10,30) and [20,50) overlapping, and
    // [60,70); a grandchild [12,18) under the first child.
    std::vector<Span> spans = {
        {"bench.rep", 0, 100, -1, 0},
        {"serve.request", 10, 30, 0, 1},
        {"serve.request", 20, 50, 0, 2},
        {"atc.read", 60, 70, 0, 0},
        {"compress.decode", 12, 18, 1, 0},
    };
    std::vector<uint64_t> self = selfTimes(spans);
    CHECK(self[0] == 100 - 40 - 10); // union [10,50) + [60,70)
    CHECK(self[1] == 20 - 6);
    CHECK(self[2] == 30);
    CHECK(self[3] == 10);
    CHECK(self[4] == 6);

    // A child that outlives its parent only covers the parent's part.
    std::vector<Span> spill = {{"a.x", 0, 10, -1, 0}, {"b.y", 5, 20, 0, 0}};
    CHECK(selfTimes(spill)[0] == 5);

    auto by_layer = selfTimeByLayer(spans);
    CHECK(by_layer["bench"] == 50);
    CHECK(by_layer["serve"] == 44);
    CHECK(by_layer["atc"] == 10);
    CHECK(by_layer["compress"] == 6);
}

} // namespace

int
main()
{
    testMedian();
    testPercentileCounts();
    testOpenLoop();
    testSelfTime();
    if (failures == 0)
        std::printf("stats_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}

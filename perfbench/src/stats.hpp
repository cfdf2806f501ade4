/**
 * @file
 * The benchmark's own arithmetic: medians, tail percentiles that state
 * how many samples they rest on, open-loop lateness, and span self
 * time. Header-only and free of library dependencies so
 * tests/stats_test.cpp can check it in isolation.
 */

#ifndef PERFBENCH_STATS_HPP_
#define PERFBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A percentile together with the evidence behind it. */
struct Tail
{
    double q = 0;       ///< the percentile actually reported (0.99 ...)
    double value = 0;   ///< nearest-rank value at q
    size_t count = 0;   ///< samples it was computed from
    size_t beyond = 0;  ///< samples strictly above its rank
};

/** Nearest-rank percentile @p q of @p v (sorted copy); see Tail. */
inline Tail
percentile(std::vector<double> v, double q)
{
    Tail t;
    t.q = q;
    t.count = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    // The epsilon keeps 0.99 * 1000 (= 990.0000000000001) at rank 990.
    auto rank =
        static_cast<size_t>(std::ceil(q * double(v.size()) - 1e-9));
    size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
    t.value = v[idx];
    t.beyond = v.size() - 1 - idx;
    return t;
}

/**
 * The highest percentile that still has at least @p min_beyond samples
 * beyond it, capped at p99: p99 itself from 1000 samples up, p98 from
 * 500, and so on, never below the median. A p99 from 200 requests is
 * the second-largest sample, which measures luck, not the tail.
 */
inline Tail
tailPercentile(const std::vector<double> &v, size_t min_beyond = 10)
{
    double q = 0.99;
    size_t n = v.size();
    if (n == 0)
        return percentile(v, q);
    // Nearest rank leaves n - ceil(q n) samples beyond; step q down in
    // whole percent until that reaches min_beyond.
    while (q > 0.5) {
        auto rank = static_cast<size_t>(std::ceil(q * double(n) - 1e-9));
        if (n - std::max<size_t>(rank, 1) >= min_beyond)
            break;
        q = std::round((q - 0.01) * 100) / 100;
    }
    return percentile(v, q);
}

/**
 * Open-loop accounting for one request: it was due at @p due, left
 * the generator at @p sent and completed at @p done (any common time
 * unit). Latency counts from the due time, so a stall of the system
 * or of the generator is charged to every request it delayed instead
 * of vanishing (coordinated omission).
 */
struct OpenLoopSample
{
    double due = 0;
    double sent = 0;
    double done = 0;

    double latency() const { return done - due; }
    double lateness() const { return std::max(0.0, sent - due); }
};

/** Due time of request @p i of an open loop at @p rate per unit time
 *  starting at @p start. */
inline double
dueTime(double start, double rate, size_t i)
{
    return start + double(i) / rate;
}

/** One recorded span: [start, end) with the span that caused it. */
struct Span
{
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;
    int64_t parent = -1; ///< index into the span list; -1 = root
    uint64_t request = 0; ///< served request id, 0 when none
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover. Children may overlap each
 * other (pipelined requests inside one phase), so the covered part is
 * the length of the union of their intervals clipped to the parent.
 */
inline std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            kids[size_t(s.parent)].emplace_back(s.start, s.end);

    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        uint64_t dur = p.end > p.start ? p.end - p.start : 0;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.start);
            hi = std::min(hi, p.end);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

/** Sum of self times per layer — the span name up to its first '.'. */
inline std::map<std::string, uint64_t>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<uint64_t> self = selfTimes(spans);
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP_

/**
 * @file
 * Unit and property tests for the SA-IS suffix array and the BWT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "atc/bytesort.hpp"
#include "compress/bwt.hpp"
#include "util/status.hpp"
#include "compress/sais.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** O(n^2 log n) reference suffix sort with implicit smallest sentinel. */
std::vector<int32_t>
naiveSuffixArray(const std::vector<uint8_t> &s)
{
    std::vector<int32_t> sa(s.size());
    for (size_t i = 0; i < s.size(); ++i)
        sa[i] = static_cast<int32_t>(i);
    std::sort(sa.begin(), sa.end(), [&](int32_t a, int32_t b) {
        size_t la = s.size() - a, lb = s.size() - b;
        int c = std::memcmp(s.data() + a, s.data() + b, std::min(la, lb));
        if (c != 0)
            return c < 0;
        return la < lb; // shorter suffix first (sentinel is smallest)
    });
    return sa;
}

TEST(SuffixArray, EmptyInput)
{
    EXPECT_TRUE(comp::suffixArray(nullptr, 0).empty());
}

TEST(SuffixArray, SingleCharacter)
{
    uint8_t c = 'x';
    auto sa = comp::suffixArray(&c, 1);
    EXPECT_EQ(sa, std::vector<int32_t>{0});
}

TEST(SuffixArray, Banana)
{
    std::string s = "banana";
    auto sa = comp::suffixArray(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    // suffixes sorted: a(5), ana(3), anana(1), banana(0), na(4), nana(2)
    EXPECT_EQ(sa, (std::vector<int32_t>{5, 3, 1, 0, 4, 2}));
}

TEST(SuffixArray, AllSameCharacter)
{
    std::vector<uint8_t> s(50, 'z');
    auto sa = comp::suffixArray(s.data(), s.size());
    // Shorter suffixes sort first: 49, 48, ..., 0.
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(sa[i], static_cast<int32_t>(s.size() - 1 - i));
}

class SuffixArrayProperty
    : public testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(SuffixArrayProperty, MatchesNaiveSort)
{
    auto [max_len, alphabet] = GetParam();
    util::Rng rng(max_len * 131 + alphabet);
    for (int trial = 0; trial < 40; ++trial) {
        size_t n = 1 + rng.below(max_len);
        std::vector<uint8_t> s(n);
        for (auto &c : s)
            c = static_cast<uint8_t>(rng.below(alphabet));
        EXPECT_EQ(comp::suffixArray(s.data(), n), naiveSuffixArray(s));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SuffixArrayProperty,
    testing::Values(std::pair{16, 2}, std::pair{64, 2}, std::pair{64, 4},
                    std::pair{200, 3}, std::pair{200, 256},
                    std::pair{500, 10}));

TEST(Bwt, EmptyInput)
{
    auto r = comp::bwtForward(nullptr, 0);
    EXPECT_TRUE(r.data.empty());
    EXPECT_TRUE(comp::bwtInverse(nullptr, 0, 0).empty());
}

TEST(Bwt, KnownTransform)
{
    // BWT groups identical characters together.
    std::string s = "mississippi";
    auto r = comp::bwtForward(reinterpret_cast<const uint8_t *>(s.data()),
                              s.size());
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.primary);
    EXPECT_EQ(std::string(inv.begin(), inv.end()), s);
}

TEST(Bwt, GroupsRunsOnPeriodicInput)
{
    // "abababab...": the transform should be two runs.
    std::vector<uint8_t> s;
    for (int i = 0; i < 64; ++i)
        s.push_back(i % 2 ? 'b' : 'a');
    auto r = comp::bwtForward(s.data(), s.size());
    int transitions = 0;
    for (size_t i = 1; i < r.data.size(); ++i)
        transitions += r.data[i] != r.data[i - 1];
    EXPECT_LE(transitions, 2);
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.primary);
    EXPECT_EQ(inv, s);
}

class BwtRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(BwtRoundTrip, RandomInputs)
{
    const int alphabet = GetParam();
    util::Rng rng(alphabet * 7919);
    for (int trial = 0; trial < 60; ++trial) {
        size_t n = rng.below(800);
        std::vector<uint8_t> s(n);
        for (auto &c : s)
            c = static_cast<uint8_t>(rng.below(alphabet));
        auto r = comp::bwtForward(s.data(), n);
        ASSERT_EQ(r.data.size(), n);
        if (n > 0) {
            EXPECT_GE(r.primary, 1u);
            EXPECT_LE(r.primary, n);
        }
        EXPECT_EQ(comp::bwtInverse(r.data.data(), n, r.primary), s);
    }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, BwtRoundTrip,
                         testing::Values(1, 2, 3, 16, 256));

TEST(Bwt, LargeBlockRoundTrip)
{
    util::Rng rng(99);
    std::vector<uint8_t> s(1 << 20);
    // Mixed content: compressible spans and random spans.
    for (size_t i = 0; i < s.size(); ++i)
        s[i] = (i / 4096) % 2 ? static_cast<uint8_t>(rng.below(256))
                              : static_cast<uint8_t>(i & 31);
    auto r = comp::bwtForward(s.data(), s.size());
    EXPECT_EQ(comp::bwtInverse(r.data.data(), r.data.size(), r.primary), s);
}

TEST(Bwt, InverseRejectsBadPrimary)
{
    std::vector<uint8_t> data{'a', 'b', 'c'};
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), 0),
                 util::Error);
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), 4),
                 util::Error);
}

TEST(SaisCore, HandlesRecursiveCase)
{
    // A 3-phase pattern repeated: every LMS substring but the last is
    // the same, so the names repeat and the reduced string recurses.
    std::vector<uint8_t> s;
    for (int i = 0; i < 30; ++i) {
        s.push_back(2);
        s.push_back(1);
        s.push_back(3);
    }
    EXPECT_EQ(comp::suffixArray(s.data(), s.size()), naiveSuffixArray(s));
}

/**
 * Reference suffix array by prefix doubling (Manber-Myers with
 * std::sort): rank pairs (rank[i], rank[i + h]) sorted until all
 * ranks differ; a missing second half (-1) sorts first, which is the
 * implicit smallest sentinel. O(n log^2 n), fine for a few MiB.
 */
std::vector<int32_t>
doublingSuffixArray(const std::vector<uint8_t> &s)
{
    const size_t n = s.size();
    std::vector<int32_t> sa(n), rank(n), next(n);
    for (size_t i = 0; i < n; ++i) {
        sa[i] = static_cast<int32_t>(i);
        rank[i] = s[i];
    }
    for (size_t h = 1;; h *= 2) {
        auto key = [&](int32_t i) {
            return std::pair{rank[i],
                             i + h < n ? rank[i + h] : int32_t{-1}};
        };
        std::sort(sa.begin(), sa.end(),
                  [&](int32_t a, int32_t b) { return key(a) < key(b); });
        next[sa[0]] = 0;
        for (size_t i = 1; i < n; ++i)
            next[sa[i]] =
                next[sa[i - 1]] + (key(sa[i - 1]) < key(sa[i]) ? 1 : 0);
        rank.swap(next);
        if (n == 0 || rank[sa[n - 1]] == static_cast<int32_t>(n - 1))
            return sa;
    }
}

TEST(SuffixArray, EveryShortLengthAndAlphabet)
{
    util::Rng rng(17);
    for (int alphabet : {1, 2, 3, 256}) {
        for (size_t n = 1; n <= 64; ++n) {
            for (int trial = 0; trial < 8; ++trial) {
                std::vector<uint8_t> s(n);
                for (auto &c : s)
                    c = static_cast<uint8_t>(rng.below(alphabet));
                ASSERT_EQ(comp::suffixArray(s.data(), n),
                          doublingSuffixArray(s))
                    << "n " << n << ", alphabet " << alphabet;
            }
        }
    }
}

TEST(SuffixArray, LongRunsAndPeriodicStrings)
{
    // Periodic text repeats its LMS substrings period after period, so
    // the reduced string is periodic too and recursion goes deep; long
    // runs leave almost no LMS positions at all.
    const size_t n = (64 << 10) + 5;
    for (size_t period = 2; period <= 7; ++period) {
        std::vector<uint8_t> s(n);
        for (size_t i = 0; i < n; ++i)
            s[i] = static_cast<uint8_t>("acbadbe"[i % period]);
        EXPECT_EQ(comp::suffixArray(s.data(), n), doublingSuffixArray(s))
            << "period " << period;
    }
    std::vector<uint8_t> runs(n);
    util::Rng rng(23);
    for (size_t i = 0; i < n;) {
        size_t len = 1 + rng.below(4096);
        uint8_t c = static_cast<uint8_t>(rng.below(3));
        for (; len > 0 && i < n; --len)
            runs[i++] = c;
    }
    EXPECT_EQ(comp::suffixArray(runs.data(), n), doublingSuffixArray(runs));
    std::vector<uint8_t> flat(n, 7);
    EXPECT_EQ(comp::suffixArray(flat.data(), n), doublingSuffixArray(flat));
}

TEST(SuffixArray, BytesortPlanesOfAnAddressTrace)
{
    // The codec's real input: the bytesort planes of a trace that
    // hops between a few regions, 32 Ki addresses (256 KiB of planes).
    const size_t n = 32 << 10;
    util::Rng rng(29);
    std::vector<uint64_t> addrs(n);
    uint64_t base = 0x10000000;
    for (auto &a : addrs) {
        if (rng.below(8) == 0)
            base = 0x10000000 + (rng.below(16) << 26);
        a = (base + rng.below(1 << 18)) >> 6;
    }
    std::vector<uint8_t> planes(8 * n);
    core::bytesortForward(addrs.data(), n, planes.data());
    EXPECT_EQ(comp::suffixArray(planes.data(), planes.size()),
              doublingSuffixArray(planes));
}

} // namespace
} // namespace atc

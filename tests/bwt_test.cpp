/**
 * @file
 * Unit and property tests for the SA-IS suffix array, the BWT, and
 * the bwc decoder from runs against its byte-at-a-time reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "atc/bytesort.hpp"
#include "bench_common.hpp"
#include "compress/bwt.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "compress/sais.hpp"
#include "reference_bwc.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

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
    EXPECT_TRUE(r.starts.empty());
    EXPECT_TRUE(comp::bwtInverse(nullptr, 0, {}).empty());
}

TEST(Bwt, KnownTransform)
{
    // BWT groups identical characters together.
    std::string s = "mississippi";
    auto r = comp::bwtForward(reinterpret_cast<const uint8_t *>(s.data()),
                              s.size());
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.starts);
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
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.starts);
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
        ASSERT_EQ(r.starts.size(), n > 0 ? 1u : 0u);
        if (n > 0) {
            EXPECT_GE(r.starts[0], 1u);
            EXPECT_LE(r.starts[0], n);
        }
        EXPECT_EQ(comp::bwtInverse(r.data.data(), n, r.starts), s);
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
    EXPECT_EQ(comp::bwtInverse(r.data.data(), r.data.size(), r.starts), s);
}

TEST(Bwt, InverseRejectsBadPrimary)
{
    std::vector<uint8_t> data{'a', 'b', 'c'};
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), {0}),
                 util::Error);
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), {4}),
                 util::Error);
    // One start row per 2^17 bytes, no more and no fewer.
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), {}),
                 util::Error);
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), {1, 2}),
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

// ------------------------------------------ decoding from runs

/** The library's decoder: symbols -> runs -> packed LF -> walk. */
std::vector<uint8_t>
decodeFromRuns(const std::vector<uint16_t> &symbols, size_t n,
               const std::vector<uint64_t> &starts)
{
    EXPECT_EQ(starts.size(), comp::bwtChainCount(n));
    std::vector<comp::BwtRun> runs;
    comp::mtfRleToRuns(symbols.data(), symbols.size(), n, runs);
    std::vector<uint8_t> out(n);
    comp::bwtInverseRuns(runs.data(), runs.size(), n, starts.data(),
                         out.data());
    return out;
}

/** The bwc encoder's symbols for a transformed string. */
std::vector<uint16_t>
symbolsOf(const std::vector<uint8_t> &bwt)
{
    auto mtf = comp::mtfEncode(bwt.data(), bwt.size());
    return comp::rleEncode(mtf.data(), mtf.size());
}

/** Decode with both decoders; a util::Error counts as no output. */
void
expectSameDecode(const std::vector<uint16_t> &symbols, size_t n,
                 const std::vector<uint64_t> &starts)
{
    std::optional<std::vector<uint8_t>> want, got;
    try {
        want = ref::decode(symbols, n, starts);
    } catch (const util::Error &) {
    }
    try {
        got = decodeFromRuns(symbols, n, starts);
    } catch (const util::Error &) {
    }
    const uint64_t primary = starts.empty() ? 0 : starts[0];
    ASSERT_EQ(want.has_value(), got.has_value())
        << "n " << n << ", primary " << primary;
    if (want)
        ASSERT_TRUE(*got == *want) << "n " << n << ", primary " << primary;
}

/**
 * A text of n bytes over @p alphabet made of runs of 1..maxrun, with
 * the first byte forced to the smallest (`lead` 0) or the largest
 * (`lead` 2) value, which moves suffix 0 (so the primary) to the first
 * or the last row.
 */
std::vector<uint8_t>
runText(util::Rng &rng, size_t n, int alphabet, size_t maxrun, int lead)
{
    std::vector<uint8_t> s(n);
    for (size_t i = 0; i < n;) {
        uint8_t c = static_cast<uint8_t>(rng.below(alphabet));
        for (size_t len = 1 + rng.below(maxrun); len > 0 && i < n; --len)
            s[i++] = c;
    }
    if (n > 0 && alphabet > 1 && lead != 1) {
        uint8_t lo = lead == 0 ? 1 : 0;
        uint8_t hi = static_cast<uint8_t>(lead == 0 ? alphabet - 1
                                                    : alphabet - 2);
        for (size_t i = 1; i < n; ++i)
            s[i] = std::clamp<uint8_t>(s[i], lo, hi);
        s[0] = lead == 0 ? 0 : static_cast<uint8_t>(alphabet - 1);
    }
    return s;
}

TEST(BwcDecode, MatchesTheThreeStageReferenceOnEveryShortBlock)
{
    util::Rng rng(41);
    size_t at_first = 0, at_last = 0, inside_run = 0;
    for (int alphabet : {1, 2, 3, 256}) {
        for (size_t n = 0; n <= 300; ++n) {
            for (int lead = 0; lead < 3; ++lead) {
                size_t maxrun = lead == 1 ? 40 : 1 + n % 7;
                auto text = runText(rng, n, alphabet, maxrun, lead);
                auto r = comp::bwtForward(text.data(), n);
                auto symbols = symbolsOf(r.data);
                ASSERT_EQ(decodeFromRuns(symbols, n, r.starts), text)
                    << "n " << n << ", alphabet " << alphabet;
                expectSameDecode(symbols, n, r.starts);
                if (n == 0)
                    continue;
                const uint64_t primary = r.starts[0];
                at_first += primary == 1;
                at_last += primary == n;
                inside_run += primary < n &&
                              r.data[primary - 1] == r.data[primary];

                // Forced primaries: at both ends and inside the longest
                // run, where the LF build splits a run around the
                // sentinel's row. Most of these are not valid
                // transforms; both decoders must then refuse them.
                size_t best = 0, best_len = 0;
                for (size_t i = 0, j; i < n; i = j) {
                    for (j = i + 1; j < n && r.data[j] == r.data[i]; ++j) {
                    }
                    if (j - i > best_len) {
                        best = i;
                        best_len = j - i;
                    }
                }
                uint32_t mid = static_cast<uint32_t>(best + best_len / 2);
                for (uint32_t p : {uint32_t{1}, static_cast<uint32_t>(n),
                                   std::max<uint32_t>(mid, 1)})
                    expectSameDecode(symbols, n, {p});
            }
        }
    }
    // The valid transforms put the primary at the first row, the last
    // row and inside runs, so each branch of the LF build decoded real
    // data.
    EXPECT_GT(at_first, 100u);
    EXPECT_GT(at_last, 100u);
    EXPECT_GT(inside_run, 100u);
}

TEST(BwcDecode, MatchesTheReferenceOnAMebibyteOfBytesortPlanes)
{
    // The reader's real codec input: bytesort planes of a trace that
    // hops between a few regions, 128 Ki addresses = 1 MiB of planes.
    const size_t n = 128 << 10;
    util::Rng rng(43);
    std::vector<uint64_t> addrs(n);
    uint64_t base = 0x10000000;
    for (auto &a : addrs) {
        if (rng.below(8) == 0)
            base = 0x10000000 + (rng.below(16) << 26);
        a = (base + rng.below(1 << 18)) >> 6;
    }
    std::vector<uint8_t> planes(8 * n);
    core::bytesortForward(addrs.data(), n, planes.data());
    auto r = comp::bwtForward(planes.data(), planes.size());
    auto symbols = symbolsOf(r.data);
    auto got = decodeFromRuns(symbols, planes.size(), r.starts);
    EXPECT_TRUE(got == planes);
    EXPECT_TRUE(got == ref::decode(symbols, planes.size(), r.starts));
    EXPECT_TRUE(comp::bwtInverse(r.data.data(), r.data.size(), r.starts) ==
                planes);
}

/** 26-letter text, one byte per letter. */
std::vector<uint8_t>
letters(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> s(n);
    for (auto &c : s)
        c = static_cast<uint8_t>('a' + rng.below(26));
    return s;
}

/** The shortest chain, 2^12 bytes: texts up to 16 of them use it. */
constexpr size_t kS = comp::bwtChainBytes(1);

/** Text lengths around the chain lengths and the chains each takes. */
constexpr std::pair<size_t, size_t> kChainCases[] = {
    {kS - 1, 1},
    {kS, 1},
    {kS + 1, 2},           // a one-byte second chain
    {2 * kS + 1, 3},
    {8 * kS, 8},           // 32 KiB: eight chains of 2^12
    {8 * kS + 5, 9},       // and a ninth of 5 bytes
    {16 * kS, 16},         // 64 KiB: the most chains of 2^12
    {16 * kS + 1, 9},      // one more byte doubles the chain length
    {(size_t(1) << 20), 16},
    {12 * (size_t(1) << 18) + 7, 13} // over 3 MiB: chains of 2^18
};

TEST(BwcDecode, ChainBoundariesMatchTheReferenceOnTextAndSuitePlanes)
{
    EXPECT_EQ(comp::bwtChainCount(0), 0u);
    EXPECT_EQ(kS, 4096u);
    EXPECT_EQ(comp::bwtChainBytes(comp::kMaxBwtBlock), size_t(1) << 20);
    EXPECT_EQ(comp::bwtChainCount(comp::kMaxBwtBlock), 16u);
    for (auto [n, chains] : kChainCases) {
        for (bool planes : {false, true}) {
            auto data = planes ? bench::suitePlanes(n, n) : letters(n, n);
            auto r = comp::bwtForward(data.data(), n);
            ASSERT_EQ(comp::bwtChainCount(n), chains) << n;
            ASSERT_EQ(r.starts.size(), chains) << n;
            auto symbols = symbolsOf(r.data);
            EXPECT_TRUE(decodeFromRuns(symbols, n, r.starts) == data)
                << n << (planes ? " planes" : " text");
            EXPECT_TRUE(ref::decode(symbols, n, r.starts) == data)
                << n << (planes ? " planes" : " text");
        }
    }
}

TEST(BwcDecode, RejectsCorruptStartRows)
{
    // 3 chains of a text block; each corruption must be refused by the
    // library and the reference alike, before the library walks out of
    // range (the sanitizer build checks that part).
    const size_t n = 2 * kS + 17;
    auto text = letters(n, 5);
    auto r = comp::bwtForward(text.data(), n);
    ASSERT_EQ(r.starts.size(), 3u);
    auto symbols = symbolsOf(r.data);
    std::vector<std::vector<uint64_t>> bad;
    for (size_t k = 0; k < 3; ++k) {
        for (uint64_t row : {uint64_t{0}, uint64_t{n + 1},
                             (uint64_t(1) << 32) + r.starts[k],
                             r.starts[k] % n + 1}) {
            auto starts = r.starts;
            starts[k] = row;
            bad.push_back(starts);
        }
    }
    for (auto [a, b] : {std::pair{0, 1}, std::pair{1, 2}, std::pair{0, 2}}) {
        auto starts = r.starts;
        std::swap(starts[a], starts[b]);
        bad.push_back(starts);
    }
    for (const auto &starts : bad) {
        EXPECT_THROW(decodeFromRuns(symbols, n, starts), util::Error)
            << starts[0] << " " << starts[1] << " " << starts[2];
        expectSameDecode(symbols, n, starts);
    }
    EXPECT_TRUE(decodeFromRuns(symbols, n, r.starts) == text);
}

TEST(BwcDecode, RejectsABadPrimary)
{
    std::string s = "mississippi";
    auto r = comp::bwtForward(reinterpret_cast<const uint8_t *>(s.data()),
                              s.size());
    auto symbols = symbolsOf(r.data);
    for (uint32_t p : {0u, 12u, 0xFFFFFFFFu})
        EXPECT_THROW(decodeFromRuns(symbols, s.size(), {p}), util::Error)
            << p;
    // A primary past 32 bits must not wrap into range.
    EXPECT_THROW(decodeFromRuns(symbols, s.size(),
                                {(uint64_t(1) << 32) + r.starts[0]}),
                 util::Error);
}

TEST(BwcDecode, RejectsAnLfThatIsNotOneCycle)
{
    // "aa" with the sentinel at row 1: rows [a, $, a], so row 2 maps to
    // itself and the cycle through the sentinel misses it. With the
    // sentinel at row 2 the same string is the transform of "aa".
    std::vector<comp::BwtRun> runs{{2, 'a'}};
    std::vector<uint8_t> out(2);
    try {
        uint64_t start = 1;
        comp::bwtInverseRuns(runs.data(), runs.size(), 2, &start,
                             out.data());
        ADD_FAILURE() << "a two-cycle LF was accepted";
    } catch (const util::Error &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt BWT stream"),
                  std::string::npos)
            << e.what();
    }
    uint64_t start = 2;
    comp::bwtInverseRuns(runs.data(), runs.size(), 2, &start, out.data());
    EXPECT_EQ(out, (std::vector<uint8_t>{'a', 'a'}));
    std::vector<uint8_t> aa{'a', 'a'};
    EXPECT_THROW(ref::bwtInverse(aa, {1}), util::Error);

    // Runs that do not add up to the declared length are refused too.
    EXPECT_THROW(comp::bwtInverseRuns(runs.data(), runs.size(), 3, &start,
                                      out.data()),
                 util::Error);
}

} // namespace
} // namespace atc

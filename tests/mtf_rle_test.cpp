/**
 * @file
 * Unit tests for move-to-front recoding, zero-run RLE, and the
 * decoder's fused pass from RLE symbols to runs (mtfRleToRuns), which
 * is checked against the byte-at-a-time reference in reference_bwc.hpp.
 */

#include <gtest/gtest.h>

#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "reference_bwc.hpp"
#include "util/status.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** The fused decoder's view of @p symbols: the string its runs spell. */
std::vector<uint8_t>
runsOf(const std::vector<uint16_t> &symbols, size_t raw_size)
{
    std::vector<comp::BwtRun> runs;
    comp::mtfRleToRuns(symbols.data(), symbols.size(), raw_size, runs);
    for (size_t i = 1; i < runs.size(); ++i)
        EXPECT_NE(runs[i].byte, runs[i - 1].byte) << "runs not merged";
    return ref::expand(runs);
}

/** Encode @p data as the bwc encoder does after its BWT. */
std::vector<uint16_t>
symbolsOf(const std::vector<uint8_t> &data)
{
    auto mtf = comp::mtfEncode(data.data(), data.size());
    return comp::rleEncode(mtf.data(), mtf.size());
}

TEST(Mtf, FirstOccurrenceYieldsByteValue)
{
    comp::MtfCoder coder;
    // With the identity initial ordering, the first encode of value v
    // produces rank v.
    EXPECT_EQ(coder.encode(42), 42);
}

TEST(Mtf, RepeatYieldsZero)
{
    comp::MtfCoder coder;
    coder.encode(42);
    EXPECT_EQ(coder.encode(42), 0);
    EXPECT_EQ(coder.encode(42), 0);
}

TEST(Mtf, RecentlyUsedGetSmallRanks)
{
    comp::MtfCoder coder;
    coder.encode(10);
    coder.encode(20);
    EXPECT_EQ(coder.encode(10), 1); // one step behind 20
}

TEST(Mtf, EncodeDecodeAreInverse)
{
    util::Rng rng(3);
    std::vector<uint8_t> data(5000);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.below(7) * 37);
    auto enc = comp::mtfEncode(data.data(), data.size());
    EXPECT_EQ(ref::mtfDecode(enc), data);
    EXPECT_EQ(runsOf(symbolsOf(data), data.size()), data);
}

TEST(Mtf, LocalReuseProducesZeros)
{
    std::vector<uint8_t> data(1000, 7);
    auto enc = comp::mtfEncode(data.data(), data.size());
    EXPECT_EQ(enc[0], 7);
    for (size_t i = 1; i < enc.size(); ++i)
        EXPECT_EQ(enc[i], 0);
}

TEST(Mtf, ResetRestoresIdentity)
{
    comp::MtfCoder coder;
    coder.encode(200);
    coder.reset();
    EXPECT_EQ(coder.encode(200), 200);
}

TEST(Rle, EmptyInputIsJustEob)
{
    auto symbols = comp::rleEncode(nullptr, 0);
    ASSERT_EQ(symbols.size(), 1u);
    EXPECT_EQ(symbols[0], comp::kEob);
    EXPECT_TRUE(ref::rleDecode(symbols).empty());
    EXPECT_TRUE(runsOf(symbols, 0).empty());
}

TEST(Rle, NonzeroBytesShiftUp)
{
    std::vector<uint8_t> data{1, 255, 100};
    auto symbols = comp::rleEncode(data.data(), data.size());
    EXPECT_EQ(symbols[0], 2);   // 1 + 1
    EXPECT_EQ(symbols[1], 256); // 255 + 1
    EXPECT_EQ(symbols[2], 101);
    EXPECT_EQ(symbols[3], comp::kEob);
}

struct RunCase
{
    uint64_t run;
    std::vector<uint16_t> digits;
};

class RleRunEncoding : public testing::TestWithParam<RunCase>
{
};

TEST_P(RleRunEncoding, BijectiveBase2)
{
    std::vector<uint8_t> data(GetParam().run, 0);
    auto symbols = comp::rleEncode(data.data(), data.size());
    std::vector<uint16_t> expected = GetParam().digits;
    expected.push_back(comp::kEob);
    EXPECT_EQ(symbols, expected);
    EXPECT_EQ(ref::rleDecode(symbols), data);
    // MTF of all zeros repeats byte 0: one run of the whole length.
    EXPECT_EQ(runsOf(symbols, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, RleRunEncoding,
    testing::Values(RunCase{1, {comp::kRunA}}, RunCase{2, {comp::kRunB}},
                    RunCase{3, {comp::kRunA, comp::kRunA}},
                    RunCase{4, {comp::kRunB, comp::kRunA}},
                    RunCase{5, {comp::kRunA, comp::kRunB}},
                    RunCase{6, {comp::kRunB, comp::kRunB}},
                    RunCase{7, {comp::kRunA, comp::kRunA, comp::kRunA}}));

TEST(Rle, LongRunIsLogarithmic)
{
    std::vector<uint8_t> data(1'000'000, 0);
    auto symbols = comp::rleEncode(data.data(), data.size());
    EXPECT_LE(symbols.size(), 22u); // ~log2(1e6) digits + EOB
    EXPECT_EQ(ref::rleDecode(symbols), data);
    EXPECT_EQ(runsOf(symbols, data.size()), data);
}

TEST(Rle, MixedContentRoundTrip)
{
    util::Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data(rng.below(3000));
        for (auto &b : data)
            b = rng.below(3) ? 0 : static_cast<uint8_t>(rng.below(256));
        auto symbols = comp::rleEncode(data.data(), data.size());
        EXPECT_EQ(ref::rleDecode(symbols), data);
        EXPECT_EQ(runsOf(symbols, data.size()), ref::mtfDecode(data));
    }
}

TEST(Rle, DecodeRejectsMissingEob)
{
    std::vector<uint16_t> symbols{5, 6};
    std::vector<comp::BwtRun> runs;
    EXPECT_THROW(comp::mtfRleToRuns(symbols.data(), symbols.size(), 2, runs),
                 util::Error);
}

TEST(Rle, DecodeRejectsTrailingSymbols)
{
    std::vector<uint16_t> symbols{5, comp::kEob, 6};
    std::vector<comp::BwtRun> runs;
    EXPECT_THROW(comp::mtfRleToRuns(symbols.data(), symbols.size(), 1, runs),
                 util::Error);
}

TEST(Rle, DecodeRejectsInvalidSymbol)
{
    std::vector<uint16_t> symbols{300, comp::kEob};
    std::vector<comp::BwtRun> runs;
    EXPECT_THROW(comp::mtfRleToRuns(symbols.data(), symbols.size(), 1, runs),
                 util::Error);
}

TEST(Rle, DecodeBoundsEveryRunByTheDeclaredSize)
{
    std::vector<comp::BwtRun> runs;
    // 3 zeros then a literal: fits 4 bytes exactly, not 3 or 5.
    std::vector<uint16_t> symbols{comp::kRunA, comp::kRunA, 5, comp::kEob};
    comp::mtfRleToRuns(symbols.data(), symbols.size(), 4, runs);
    EXPECT_EQ(ref::expand(runs), (std::vector<uint8_t>{0, 0, 0, 4}));
    for (size_t raw : {2, 3, 5})
        EXPECT_THROW(comp::mtfRleToRuns(symbols.data(), symbols.size(), raw,
                                        runs),
                     util::Error)
            << raw;

    // 64 RUNB digits describe a run of 2^65 - 2 zeros; the pass stops
    // at the digit that first overruns the block, before any weight
    // can overflow and before it would miss the EOB.
    std::vector<uint16_t> bomb(64, comp::kRunB);
    try {
        comp::mtfRleToRuns(bomb.data(), bomb.size(), 1000, runs);
        ADD_FAILURE() << "a 2^65-byte zero run was accepted";
    } catch (const util::Error &e) {
        EXPECT_NE(std::string(e.what()).find("size mismatch"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(runs.empty());
}

TEST(MtfRle, PipelineShrinksRepetitiveData)
{
    // BWT-like data: long runs of the same byte.
    std::vector<uint8_t> data;
    for (int run = 0; run < 100; ++run) {
        uint8_t value = static_cast<uint8_t>(run * 13);
        for (int i = 0; i < 500; ++i)
            data.push_back(value);
    }
    auto mtf = comp::mtfEncode(data.data(), data.size());
    auto symbols = comp::rleEncode(mtf.data(), mtf.size());
    // 100 runs -> ~100 literals + ~100*9 run digits, far below 50000.
    EXPECT_LT(symbols.size(), 2000u);

    EXPECT_EQ(ref::mtfDecode(ref::rleDecode(symbols)), data);
    EXPECT_EQ(runsOf(symbols, data.size()), data);
}

} // namespace
} // namespace atc

/**
 * @file
 * Unit tests for canonical, length-limited Huffman coding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "compress/huffman.hpp"
#include "reference_huffman.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** Verify Kraft inequality and length-limit for a set of lengths. */
void
checkValidCode(const std::vector<uint8_t> &lengths, int limit)
{
    double kraft = 0.0;
    for (uint8_t l : lengths) {
        EXPECT_LE(l, limit);
        if (l > 0)
            kraft += std::pow(2.0, -static_cast<double>(l));
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(HuffmanLengths, EmptyFrequencies)
{
    std::vector<uint64_t> freq(10, 0);
    auto lengths = comp::huffmanLengths(freq);
    for (uint8_t l : lengths)
        EXPECT_EQ(l, 0);
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne)
{
    std::vector<uint64_t> freq(10, 0);
    freq[3] = 1000;
    auto lengths = comp::huffmanLengths(freq);
    EXPECT_EQ(lengths[3], 1);
}

TEST(HuffmanLengths, TwoSymbols)
{
    std::vector<uint64_t> freq{7, 0, 3};
    auto lengths = comp::huffmanLengths(freq);
    EXPECT_EQ(lengths[0], 1);
    EXPECT_EQ(lengths[1], 0);
    EXPECT_EQ(lengths[2], 1);
}

TEST(HuffmanLengths, MoreFrequentNeverLonger)
{
    util::Rng rng(5);
    std::vector<uint64_t> freq(64);
    for (auto &f : freq)
        f = rng.below(10000);
    auto lengths = comp::huffmanLengths(freq);
    for (size_t i = 0; i < freq.size(); ++i) {
        for (size_t j = 0; j < freq.size(); ++j) {
            if (freq[i] > freq[j] && freq[j] > 0)
                EXPECT_LE(lengths[i], lengths[j])
                    << "sym " << i << " freq " << freq[i] << " vs sym "
                    << j << " freq " << freq[j];
        }
    }
    checkValidCode(lengths, comp::kMaxCodeLen);
}

TEST(HuffmanLengths, RespectsLengthLimitOnSkewedInput)
{
    // Fibonacci-like frequencies force deep trees without a limit.
    std::vector<uint64_t> freq(40);
    uint64_t a = 1, b = 1;
    for (auto &f : freq) {
        f = a;
        uint64_t c = a + b;
        a = b;
        b = c;
    }
    for (int limit : {8, 12, 24}) {
        auto lengths = comp::huffmanLengths(freq, limit);
        checkValidCode(lengths, limit);
        for (size_t i = 0; i < freq.size(); ++i)
            EXPECT_GT(lengths[i], 0) << i;
    }
}

TEST(HuffmanLengths, NearOptimalOnUniformInput)
{
    std::vector<uint64_t> freq(256, 100);
    auto lengths = comp::huffmanLengths(freq);
    for (uint8_t l : lengths)
        EXPECT_EQ(l, 8); // 256 equal symbols -> exactly 8 bits
}

/** A table and @p symbols coded with @p lengths, as the codecs write
 *  them. */
std::vector<uint8_t>
encodeWith(const std::vector<uint8_t> &lengths, const std::vector<int> &symbols)
{
    comp::HuffmanEncoder enc(lengths);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (int sym : symbols)
        enc.writeSymbol(bw, sym);
    bw.alignAndFlush();
    return out;
}

/** The library's decode of @p count symbols of @p alphabet; the stream
 *  must end with them. */
std::vector<int>
decodeAll(const std::vector<uint8_t> &bytes, int alphabet, size_t count)
{
    std::vector<int> got;
    util::MemorySource src(bytes);
    util::readBitStream(src, [&](util::BitReader &br) {
        auto dec = comp::HuffmanDecoder::readTable(br, alphabet);
        for (size_t i = 0; i < count; ++i)
            got.push_back(dec.decode(br));
    });
    return got;
}

/** The bit-at-a-time reference's decode of the same. */
std::vector<int>
referenceDecodeAll(const std::vector<uint8_t> &bytes, int alphabet,
                   size_t count)
{
    std::vector<int> got;
    util::MemorySource src(bytes);
    ref::BitReader br(src);
    ref::HuffmanDecoder dec(ref::readLengths(br, alphabet));
    for (size_t i = 0; i < count; ++i)
        got.push_back(dec.decode(br));
    return got;
}

class HuffmanRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(HuffmanRoundTrip, EncodeDecode)
{
    const int alphabet = GetParam();
    util::Rng rng(alphabet);

    // Geometric-ish distribution over the alphabet.
    std::vector<uint64_t> freq(alphabet, 0);
    std::vector<int> symbols;
    for (int i = 0; i < 20000; ++i) {
        int sym = 0;
        while (sym + 1 < alphabet && rng.below(3) == 0)
            ++sym;
        freq[sym]++;
        symbols.push_back(sym);
    }

    auto out = encodeWith(comp::huffmanLengths(freq), symbols);
    EXPECT_EQ(decodeAll(out, alphabet, symbols.size()), symbols);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, HuffmanRoundTrip,
                         testing::Values(2, 3, 16, 100, 258, 300));

TEST(HuffmanDecoder, RejectsOverfullTable)
{
    // Three codes of length 1 violate Kraft.
    std::vector<uint8_t> lengths{1, 1, 1};
    EXPECT_THROW(comp::HuffmanDecoder dec(lengths), util::Error);
}

TEST(HuffmanDecoder, RejectsInvalidStreamCode)
{
    // Incomplete code: one symbol of length 2; the code 11... is invalid.
    std::vector<uint8_t> lengths{2};
    comp::HuffmanDecoder dec(lengths);
    std::vector<uint8_t> data{0xFF, 0xFF, 0xFF, 0xFF};
    util::MemorySource src(data);
    util::BitReader br(src);
    EXPECT_THROW(dec.decode(br), util::Error);
}

/** Random lengths of a prefix code over @p alphabet symbols, complete
 *  or not, with codes up to kMaxCodeLen bits. */
std::vector<uint8_t>
randomLengths(util::Rng &rng, int alphabet)
{
    std::vector<uint8_t> lengths(alphabet, 0);
    uint64_t kraft = 0; // scaled by 2^kMaxCodeLen
    auto weight = [](int l) { return uint64_t(1) << (comp::kMaxCodeLen - l); };
    for (auto &l : lengths) {
        if (rng.below(3) == 0)
            continue;
        l = static_cast<uint8_t>(1 + rng.below(comp::kMaxCodeLen));
        kraft += weight(l);
    }
    if (kraft == 0) {
        lengths[rng.below(alphabet)] = 1;
        return lengths;
    }
    while (kraft > weight(0)) {
        auto &l = lengths[rng.below(alphabet)];
        if (l == 0 || l == comp::kMaxCodeLen)
            continue;
        kraft -= weight(l + 1);
        ++l;
    }
    return lengths;
}

TEST(HuffmanDecoder, MatchesTheBitAtATimeReference)
{
    // Random canonical tables, most with codes longer than the lookup,
    // over the codecs' alphabets and others: the table-driven decoder
    // and the reference read the same symbols from the same bytes.
    util::Rng rng(17);
    int long_codes = 0;
    for (int round = 0; round < 200; ++round) {
        const int alphabet =
            round % 4 == 0 ? 258 : 1 + static_cast<int>(rng.below(300));
        const auto lengths = randomLengths(rng, alphabet);
        std::vector<int> in_use;
        for (int s = 0; s < alphabet; ++s) {
            if (lengths[s] > 0)
                in_use.push_back(s);
            long_codes += lengths[s] > comp::HuffmanDecoder::kLookupBits;
        }
        std::vector<int> symbols(1 + rng.below(3000));
        for (int &sym : symbols)
            sym = in_use[rng.below(in_use.size())];
        const auto bytes = encodeWith(lengths, symbols);
        ASSERT_EQ(referenceDecodeAll(bytes, alphabet, symbols.size()),
                  symbols)
            << round;
        ASSERT_EQ(decodeAll(bytes, alphabet, symbols.size()), symbols)
            << round;
    }
    EXPECT_GT(long_codes, 1000);
}

TEST(HuffmanDecoder, OneSymbolCode)
{
    // One symbol in use has the one-bit code 0; a 1 is no code.
    for (int sym : {0, 7, 257}) {
        std::vector<uint8_t> lengths(258, 0);
        lengths[sym] = 1;
        const std::vector<int> symbols(1000, sym);
        auto bytes = encodeWith(lengths, symbols);
        EXPECT_EQ(referenceDecodeAll(bytes, 258, symbols.size()), symbols);
        EXPECT_EQ(decodeAll(bytes, 258, symbols.size()), symbols);
        bytes.back() |= 1; // a padding bit becomes a 1
        util::Status st = util::toStatus(
            [&] { decodeAll(bytes, 258, symbols.size() + 1); });
        EXPECT_NE(st.message().find("invalid huffman code"),
                  std::string::npos)
            << st.message();
    }
}

TEST(HuffmanDecoder, TablesAreBzip2Sized)
{
    // 51 of 258 symbols in use, in 4 groups: 17 group bits, 4 maps of
    // 16, 5 bits of first length, and 1 + 2|delta| bits a length.
    std::vector<uint8_t> lengths(258, 0);
    for (int s = 0; s < 51; ++s)
        lengths[s] = static_cast<uint8_t>(6 + s % 3);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    comp::HuffmanEncoder(lengths).writeTable(bw);
    size_t bits = 17 + 4 * 16 + 5;
    for (int s = 0; s < 51; ++s)
        bits += 1 + 2 * std::abs(lengths[s] - (s ? lengths[s - 1] : 6));
    EXPECT_EQ(bw.bitCount(), bits);
    EXPECT_LT(bits, 258u * 5 / 2);
}

/** Hand-written table bits: the in-use map of @p used over 258
 *  symbols, a 5-bit first length and the given steps ("1" + direction
 *  bit, or "0" to end a symbol). */
std::vector<uint8_t>
tableBits(const std::vector<int> &used, uint32_t first,
          const std::string &steps)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    for (int g = 0; g < 17; ++g) {
        bool any = false;
        for (int s : used)
            any |= s / 16 == g;
        bw.writeBit(any);
    }
    for (int g = 0; g < 17; ++g) {
        uint32_t map = 0;
        for (int s : used)
            map |= s / 16 == g ? 1u << (15 - s % 16) : 0;
        if (map)
            bw.writeBits(map, 16);
    }
    bw.writeBits(first, 5);
    for (char c : steps)
        bw.writeBit(c == '1');
    bw.alignAndFlush();
    return out;
}

/** Read a table of 258 symbols that is all of @p bytes (a heap copy
 *  of their size, so a read past them is a sanitizer error). */
util::Status
readTableOf(const std::vector<uint8_t> &bytes)
{
    return util::toStatus([&] {
        std::vector<uint8_t> exact(bytes);
        util::MemorySource src(exact);
        util::readBitStream(src, [](util::BitReader &br) {
            comp::HuffmanDecoder::readTable(br, 258);
        });
    });
}

TEST(HuffmanDecoder, CorruptTablesFailAsOneStatus)
{
    EXPECT_TRUE(readTableOf(tableBits({0, 1}, 1, "00")).ok());

    const std::pair<std::vector<uint8_t>, const char *> cases[] = {
        // Three codes of length 1 break the Kraft inequality.
        {tableBits({0, 1, 2}, 1, "000"), "invalid huffman table"},
        // 24 codes of 1..24 bits fit; a 25th of 24 bits does not.
        {tableBits({0, 1}, 1, "0100"), "ok"},
        {tableBits({}, 1, ""), "empty in-use map"},
        {tableBits({0}, 0, "0"), "length out of range"},
        {tableBits({0}, 25, "0"), "length out of range"},
        {tableBits({0, 1}, 24, "0100"), "length out of range"},
        {tableBits({0, 1}, 1, "0110"), "length out of range"},
    };
    for (const auto &[bytes, why] : cases) {
        util::Status st = readTableOf(bytes);
        if (std::string(why) == "ok") {
            EXPECT_TRUE(st.ok()) << st.message();
            continue;
        }
        ASSERT_FALSE(st.ok()) << why;
        EXPECT_NE(st.message().find(why), std::string::npos) << st.message();
    }

    // A map that names symbols past the alphabet of 258.
    std::vector<uint8_t> past = tableBits({256, 258}, 1, "00");
    EXPECT_NE(readTableOf(past).message().find("past the alphabet"),
              std::string::npos);

    // Every cut of a table runs into the end of its bytes.
    std::vector<uint8_t> whole = tableBits({0, 40, 257}, 2, "01000");
    for (size_t cut = 0; cut < whole.size(); ++cut) {
        util::Status st = readTableOf(
            std::vector<uint8_t>(whole.begin(), whole.begin() + cut));
        EXPECT_FALSE(st.ok()) << cut;
    }
}

TEST(HuffmanDecoder, StreamsEndExactlyWithTheirBytes)
{
    // Symbols with codes up to 20 bits, decoded from exactly the
    // stream's bytes: a cut inside the last symbol reads past the end,
    // and a byte after the stream is left over. Each fails as one
    // Status.
    util::Rng rng(3);
    std::vector<uint64_t> freq(258);
    for (size_t i = 0; i < freq.size(); ++i)
        freq[i] = 1 + (uint64_t(1) << (i % 20));
    const auto lengths = comp::huffmanLengths(freq);
    std::vector<int> symbols(500);
    for (int &sym : symbols)
        sym = static_cast<int>(rng.below(258));
    symbols.back() = 0; // the longest code
    ASSERT_GT(lengths[0], 16);
    const auto bytes = encodeWith(lengths, symbols);

    auto decodeFrom = [&](std::vector<uint8_t> exact) {
        return util::toStatus(
            [&] { decodeAll(exact, 258, symbols.size()); });
    };
    EXPECT_TRUE(decodeFrom(bytes).ok());
    for (size_t cut : {size_t(1), size_t(2)}) {
        util::Status st = decodeFrom(
            std::vector<uint8_t>(bytes.begin(), bytes.end() - cut));
        EXPECT_NE(st.message().find("truncated"), std::string::npos)
            << cut << ": " << st.message();
    }
    std::vector<uint8_t> longer = bytes;
    longer.push_back(0);
    EXPECT_NE(decodeFrom(longer).message().find("bytes left"),
              std::string::npos);
}

TEST(HuffmanEncoder, CanonicalCodesAreOrdered)
{
    std::vector<uint64_t> freq{100, 50, 25, 12, 6, 3};
    comp::HuffmanEncoder enc(freq);
    const auto &lengths = enc.lengths();
    // Canonical property: codes are assigned by (length, symbol); just
    // verify the most frequent symbol got the shortest code length.
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_LE(lengths[0], lengths[i]);
}

TEST(HuffmanCompression, ApproachesEntropyOnBiasedData)
{
    // 90/10 binary source: entropy ~0.469 bits/symbol.
    util::Rng rng(11);
    std::vector<uint64_t> freq(2, 0);
    std::vector<int> symbols(100000);
    for (auto &s : symbols) {
        s = rng.below(10) == 0;
        freq[s]++;
    }
    comp::HuffmanEncoder enc(freq);
    // Plain Huffman on a binary alphabet cannot beat 1 bit/symbol, but
    // the table must still assign 1-bit codes to both.
    EXPECT_EQ(enc.lengths()[0], 1);
    EXPECT_EQ(enc.lengths()[1], 1);
}

} // namespace
} // namespace atc

/**
 * @file
 * Reference bwc decoder for the tests: the byte-at-a-time three-stage
 * form (zero-run RLE -> MTF -> LF inverse BWT), each stage writing a
 * full byte array, and bzip2's RLE1 in both directions as a byte-wise
 * state machine. The library decodes from runs instead
 * (comp::mtfRleToRuns, comp::bwtInverseRuns) and runs RLE1 eight bytes
 * at a time (comp::rle1Encode, comp::rle1Decode); tests compare the
 * two.
 */

#ifndef ATC_TESTS_REFERENCE_BWC_HPP_
#define ATC_TESTS_REFERENCE_BWC_HPP_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compress/bwt.hpp"
#include "compress/rle.hpp"
#include "util/status.hpp"

namespace atc::ref {

/** Zero-run symbols (ending in their only EOB) back to MTF bytes. */
inline std::vector<uint8_t>
rleDecode(const std::vector<uint16_t> &symbols)
{
    std::vector<uint8_t> out;
    uint64_t run = 0;
    uint64_t weight = 1;
    bool saw_eob = false;
    for (uint16_t sym : symbols) {
        ATC_CHECK(!saw_eob, "RLE symbols after EOB");
        if (sym == comp::kRunA || sym == comp::kRunB) {
            run += weight * (sym == comp::kRunA ? 1 : 2);
            weight <<= 1;
            continue;
        }
        out.insert(out.end(), run, 0);
        run = 0;
        weight = 1;
        if (sym == comp::kEob) {
            saw_eob = true;
        } else {
            ATC_CHECK(sym >= 2 && sym <= 256, "invalid RLE symbol");
            out.push_back(static_cast<uint8_t>(sym - 1));
        }
    }
    ATC_CHECK(saw_eob, "RLE stream missing EOB");
    return out;
}

/** MTF ranks back to bytes (identity initial ordering). */
inline std::vector<uint8_t>
mtfDecode(const std::vector<uint8_t> &ranks)
{
    uint8_t order[256];
    for (int i = 0; i < 256; ++i)
        order[i] = static_cast<uint8_t>(i);
    std::vector<uint8_t> out(ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
        uint8_t value = order[ranks[i]];
        std::memmove(order + 1, order, ranks[i]);
        order[0] = value;
        out[i] = value;
    }
    return out;
}

/**
 * LF-mapping inverse BWT over a byte array, walked backwards from the
 * sentinel's row, one chain. @p starts are the encoder's start rows:
 * starts[0] is the primary index, and the walk checks that it passes
 * starts[k] at text position k * bwtChainBytes(n).
 */
inline std::vector<uint8_t>
bwtInverse(const std::vector<uint8_t> &data,
           const std::vector<uint64_t> &starts)
{
    const size_t n = data.size();
    ATC_CHECK(starts.size() == comp::bwtChainCount(n),
              "BWT start rows do not match the block");
    if (n == 0)
        return {};
    const uint64_t primary = starts[0];
    ATC_CHECK(primary >= 1 && primary <= n, "BWT primary index out of range");
    uint32_t base[256] = {};
    for (uint8_t c : data)
        base[c]++;
    uint32_t sum = 1;
    for (uint32_t &b : base) {
        uint32_t cnt = b;
        b = sum;
        sum += cnt;
    }
    std::vector<uint32_t> lf(n + 1);
    for (size_t i = 0; i <= n; ++i)
        lf[i] = i == primary ? 0 : base[data[i - (i > primary)]]++;
    std::vector<uint8_t> out(n);
    const size_t chain = comp::bwtChainBytes(n);
    // Before out[k] is written, `row` is the row of suffix k + 1.
    uint32_t row = lf[primary];
    for (size_t k = n; k-- > 0;) {
        ATC_CHECK(row != primary, "corrupt BWT stream");
        if ((k + 1) % chain == 0 && k + 1 < n)
            ATC_CHECK(row == starts[(k + 1) / chain],
                      "corrupt BWT stream (start row mismatch)");
        out[k] = data[row - (row > primary)];
        row = lf[row];
    }
    ATC_CHECK(row == primary, "corrupt BWT stream (cycle mismatch)");
    return out;
}

/** The whole reference decoder: symbols of an n-byte block to bytes. */
inline std::vector<uint8_t>
decode(const std::vector<uint16_t> &symbols, size_t n,
       const std::vector<uint64_t> &starts)
{
    std::vector<uint8_t> mtf = rleDecode(symbols);
    ATC_CHECK(mtf.size() == n, "BWC block size mismatch");
    return bwtInverse(mtfDecode(mtf), starts);
}

/**
 * bzip2's RLE1, one run at a time: a run of 4 to kRle1MaxRun equal
 * bytes becomes 4 bytes and a count (run - 4); a longer run is cut
 * into groups of kRle1MaxRun from its start.
 */
inline std::vector<uint8_t>
rle1Encode(const std::vector<uint8_t> &data)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i < data.size();) {
        size_t run = 1;
        while (i + run < data.size() && data[i + run] == data[i] &&
               run < comp::kRle1MaxRun)
            ++run;
        out.insert(out.end(), std::min<size_t>(run, 4), data[i]);
        if (run >= 4)
            out.push_back(static_cast<uint8_t>(run - 4));
        i += run;
    }
    return out;
}

/** RLE1 text back to bytes: after 4 equal bytes, the next is a count. */
inline std::vector<uint8_t>
rle1Decode(const std::vector<uint8_t> &text)
{
    std::vector<uint8_t> out;
    int same = 0;
    uint8_t last = 0;
    for (uint8_t b : text) {
        if (same == 4) {
            out.insert(out.end(), b, last);
            same = 0;
            continue;
        }
        same = same > 0 && b == last ? same + 1 : 1;
        last = b;
        out.push_back(b);
    }
    ATC_CHECK(same < 4, "RLE1 text ends without its count");
    return out;
}

/** Expand runs back to the string they describe. */
inline std::vector<uint8_t>
expand(const std::vector<comp::BwtRun> &runs)
{
    std::vector<uint8_t> out;
    for (const comp::BwtRun &r : runs)
        out.insert(out.end(), r.len, r.byte);
    return out;
}

} // namespace atc::ref

#endif // ATC_TESTS_REFERENCE_BWC_HPP_

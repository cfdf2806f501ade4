/**
 * @file
 * Reference bwc decoder for the tests: the byte-at-a-time three-stage
 * form (zero-run RLE -> MTF -> LF inverse BWT), each stage writing a
 * full byte array. The library decodes from runs instead
 * (comp::mtfRleToRuns, comp::bwtInverseRuns); tests compare the two.
 */

#ifndef ATC_TESTS_REFERENCE_BWC_HPP_
#define ATC_TESTS_REFERENCE_BWC_HPP_

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

/** LF-mapping inverse BWT over a byte array, walked backwards. */
inline std::vector<uint8_t>
bwtInverse(const std::vector<uint8_t> &data, uint32_t primary)
{
    const size_t n = data.size();
    if (n == 0)
        return {};
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
    uint32_t row = lf[primary];
    for (size_t k = n; k-- > 0;) {
        ATC_CHECK(row != primary, "corrupt BWT stream");
        out[k] = data[row - (row > primary)];
        row = lf[row];
    }
    ATC_CHECK(row == primary, "corrupt BWT stream (cycle mismatch)");
    return out;
}

/** The whole reference decoder: symbols of an n-byte block to bytes. */
inline std::vector<uint8_t>
decode(const std::vector<uint16_t> &symbols, size_t n, uint32_t primary)
{
    std::vector<uint8_t> mtf = rleDecode(symbols);
    ATC_CHECK(mtf.size() == n, "BWC block size mismatch");
    return bwtInverse(mtfDecode(mtf), primary);
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

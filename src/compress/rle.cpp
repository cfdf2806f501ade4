#include "compress/rle.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/status.hpp"

namespace atc::comp {

namespace {

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

/**
 * The first position in [i, n) at which 4 equal bytes start, or n.
 * Eight bytes at a time: byte k of w ^ (w >> 8) is zero where bytes k
 * and k + 1 agree, and three such zeros in a row (k <= 4, within the
 * word) mark a start. Little-endian loads, as bytesort's.
 */
size_t
nextQuad(const uint8_t *d, size_t i, size_t n)
{
    constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
    for (; i + 8 <= n; i += 5) {
        uint64_t w = load64(d + i);
        uint64_t x = w ^ (w >> 8);
        // 0x80 in each zero byte of x, exact; byte 7 compares with the
        // shifted-in zero and is dropped.
        uint64_t eq = ~(((x & kLow7) + kLow7) | x | kLow7) &
                      0x0080808080808080ull;
        uint64_t quad = eq & (eq >> 8) & (eq >> 16);
        if (quad != 0)
            return i + std::countr_zero(quad) / 8;
    }
    for (; i + 4 <= n; ++i) {
        if (d[i] == d[i + 1] && d[i] == d[i + 2] && d[i] == d[i + 3])
            return i;
    }
    return n;
}

/** The end of the run of d[p] that starts at p (at most n). */
size_t
runEnd(const uint8_t *d, size_t p, size_t n)
{
    const uint64_t pattern = d[p] * 0x0101010101010101ull;
    size_t j = p + 1;
    for (; j + 8 <= n; j += 8) {
        uint64_t diff = load64(d + j) ^ pattern;
        if (diff != 0)
            return j + std::countr_zero(diff) / 8;
    }
    while (j < n && d[j] == d[p])
        ++j;
    return j;
}

/** Append the bijective base-2 numeral for a run of @p run zeros. */
void
emitRun(uint64_t run, std::vector<uint16_t> &out)
{
    // run = sum of digit_i * 2^i with digits in {1 (RUNA), 2 (RUNB)}.
    while (run > 0) {
        if (run & 1) {
            out.push_back(kRunA);
            run = (run - 1) >> 1;
        } else {
            out.push_back(kRunB);
            run = (run - 2) >> 1;
        }
    }
}

} // namespace

size_t
rle1Encode(const uint8_t *data, size_t n, uint8_t *out)
{
    // Runs are maximal, so no literal span ends in the byte of the
    // group after it, and a decoder that starts looking for 4 equal
    // bytes where this loop does finds the same group.
    size_t o = 0;
    for (size_t i = 0; i < n;) {
        size_t p = nextQuad(data, i, n);
        std::memcpy(out + o, data + i, p - i);
        o += p - i;
        if (p == n)
            break;
        const uint8_t c = data[p];
        const size_t end = runEnd(data, p, n);
        size_t run = end - p;
        for (; run >= 4; run -= std::min(run, kRle1MaxRun)) {
            std::memset(out + o, c, 4);
            out[o + 4] = static_cast<uint8_t>(std::min(run, kRle1MaxRun) - 4);
            o += 5;
        }
        std::memset(out + o, c, run);
        o += run;
        i = end;
    }
    return o;
}

void
rle1Decode(const uint8_t *text, size_t len, uint8_t *out, size_t raw_size)
{
    size_t o = 0;
    for (size_t i = 0; i < len;) {
        size_t p = nextQuad(text, i, len);
        ATC_CHECK(p - i <= raw_size - o,
                  "BWC block size mismatch (RLE1 text overruns it)");
        if (p > i)
            std::memcpy(out + o, text + i, p - i);
        o += p - i;
        if (p == len)
            break;
        ATC_CHECK(p + 4 < len, "corrupt RLE1 text (a run without its count)");
        size_t run = 4 + size_t(text[p + 4]);
        ATC_CHECK(run <= raw_size - o,
                  "BWC block size mismatch (RLE1 run overruns it)");
        std::memset(out + o, text[p], run);
        o += run;
        i = p + 5;
    }
    ATC_CHECK(o == raw_size, "BWC block size mismatch");
}

std::vector<uint16_t>
rleEncode(const uint8_t *data, size_t n)
{
    std::vector<uint16_t> out;
    rleEncode(data, n, out);
    return out;
}

void
rleEncode(const uint8_t *data, size_t n, std::vector<uint16_t> &out)
{
    out.clear();
    out.reserve(n / 2 + 16);
    uint64_t run = 0;
    size_t i = 0;
    while (i < n) {
        if (data[i] == 0) {
            // MTF output is dominated by zero runs; skip over them a
            // word at a time before falling back to the byte tail.
            size_t start = i;
            ++i;
            while (i + 8 <= n) {
                uint64_t w;
                std::memcpy(&w, data + i, 8);
                if (w != 0)
                    break;
                i += 8;
            }
            while (i < n && data[i] == 0)
                ++i;
            run += i - start;
            continue;
        }
        emitRun(run, out);
        run = 0;
        out.push_back(static_cast<uint16_t>(data[i]) + 1);
        ++i;
    }
    emitRun(run, out);
    out.push_back(kEob);
}

void
mtfRleToRuns(const uint16_t *symbols, size_t count, size_t raw_size,
             std::vector<BwtRun> &runs)
{
    ATC_CHECK(raw_size <= kMaxBwtBlock, "RLE block above the 2^24 - 1 byte cap");
    runs.clear();
    uint8_t order[256];
    for (int i = 0; i < 256; ++i)
        order[i] = static_cast<uint8_t>(i);

    // A pending zero run repeats order[0], the byte of the last run
    // (byte 0 before the first one). Since run >= weight - 1, bounding
    // run by what is left of the block also bounds the weight's shift.
    size_t pos = 0;
    uint32_t run = 0;
    uint32_t weight = 1;
    for (size_t i = 0; i < count; ++i) {
        uint16_t sym = symbols[i];
        if (sym <= kRunB) {
            run += weight << sym;
            weight <<= 1;
            ATC_CHECK(run <= raw_size - pos,
                      "BWC block size mismatch (zero run overruns it)");
            continue;
        }
        if (run != 0) {
            if (runs.empty())
                runs.push_back({0, order[0]});
            runs.back().len += run;
            pos += run;
            run = 0;
            weight = 1;
        }
        if (sym == kEob) {
            ATC_CHECK(i + 1 == count, "RLE symbols after EOB");
            ATC_CHECK(pos == raw_size, "BWC block size mismatch");
            return;
        }
        ATC_CHECK(sym <= 256, "invalid RLE symbol");
        ATC_CHECK(pos < raw_size,
                  "BWC block size mismatch (literal past its end)");
        size_t rank = sym - 1;
        uint8_t value = order[rank];
        std::memmove(order + 1, order, rank);
        order[0] = value;
        runs.push_back({1, value});
        ++pos;
    }
    util::raise("RLE stream missing EOB");
}

} // namespace atc::comp

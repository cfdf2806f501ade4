#include "compress/rle.hpp"

#include <cstring>

#include "util/status.hpp"

namespace atc::comp {

namespace {

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

std::vector<uint16_t>
rleEncode(const uint8_t *data, size_t n)
{
    std::vector<uint16_t> out;
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
    return out;
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

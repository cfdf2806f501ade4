#include "compress/bwt.hpp"

#include "compress/sais.hpp"
#include "util/status.hpp"

namespace atc::comp {

BwtResult
bwtForward(const uint8_t *data, size_t n)
{
    BwtResult result;
    if (n == 0)
        return result;

    std::vector<int32_t> sa = suffixArray(data, n);

    // Conceptual matrix rows: row 0 is the sentinel suffix (BWT char is
    // the last input byte); rows 1..n are the suffixes in sa order, each
    // contributing the byte preceding it. The row of suffix 0 would
    // contribute the sentinel itself; it is skipped and recorded.
    result.data.resize(n);
    result.data[0] = data[n - 1];
    size_t out = 1;
    for (size_t i = 0; i < n; ++i) {
        if (sa[i] == 0) {
            result.primary = static_cast<uint32_t>(i + 1);
        } else {
            result.data[out++] = data[sa[i] - 1];
        }
    }
    ATC_ASSERT(out == n);
    ATC_ASSERT(result.primary >= 1 && result.primary <= n);
    return result;
}

namespace {

/**
 * Rows [row, row + len) of the conceptual matrix end in byte @p c.
 * Rotating each right by one moves c to the front, giving the next len
 * rows of c's bucket in the same order; bucket row j made from row i
 * gets tt[j] = (i << 8) | c, since i is the row that follows j in
 * text order and c is j's first byte.
 */
inline void
fillRows(uint32_t *tt, uint32_t &bucket, uint32_t row, uint32_t len,
         uint8_t c)
{
    uint32_t *dst = tt + bucket;
    uint32_t first = (row << 8) | c;
    for (uint32_t i = 0; i < len; ++i)
        dst[i] = first + (i << 8);
    bucket += len;
}

} // namespace

void
bwtInverseRuns(const BwtRun *runs, size_t count, size_t n, uint64_t primary,
               uint8_t *out)
{
    ATC_CHECK(n <= kMaxBwtBlock, "BWT block above the 2^24 - 1 byte cap");
    if (n == 0) {
        ATC_CHECK(count == 0, "BWT runs do not add up to the block");
        return;
    }
    ATC_CHECK(primary >= 1 && primary <= n, "BWT primary index out of range");

    // Conceptual array of n + 1 rows: the string with the sentinel
    // re-inserted at row `primary`; row 0 starts with the sentinel.
    // bucket[c] is the first row whose rotation starts with c.
    uint32_t bucket[256] = {};
    size_t total = 0;
    for (size_t r = 0; r < count; ++r) {
        bucket[runs[r].byte] += runs[r].len;
        total += runs[r].len;
    }
    ATC_CHECK(total == n, "BWT runs do not add up to the block");
    uint32_t sum = 1;
    for (uint32_t &b : bucket) {
        uint32_t cnt = b;
        b = sum;
        sum += cnt;
    }

    // tt[j] = (row after j in text order << 8) | first byte of row j,
    // as bzip2's tt[]; the sentinel's row 0 leads to row `primary`.
    thread_local std::vector<uint32_t> scratch;
    if (scratch.size() < n + 1)
        scratch.resize(n + 1);
    uint32_t *tt = scratch.data();
    const auto sentinel = static_cast<uint32_t>(primary);
    tt[0] = sentinel << 8;
    uint32_t pos = 0; // string position; its row skips the sentinel's
    for (size_t r = 0; r < count; ++r) {
        uint32_t len = runs[r].len;
        uint8_t c = runs[r].byte;
        if (pos < sentinel && pos + len > sentinel) {
            uint32_t head = sentinel - pos;
            fillRows(tt, bucket[c], pos, head, c);
            fillRows(tt, bucket[c], sentinel + 1, len - head, c);
        } else {
            fillRows(tt, bucket[c], pos + (pos >= sentinel), len, c);
        }
        pos += len;
    }

    // Walk forward from the row of the whole input. tt[0] leads back
    // to that row, so the walk reaches the sentinel's row 0 after
    // exactly n steps if and only if the LF mapping is one cycle.
    uint32_t row = sentinel;
    for (size_t k = 0; k < n; ++k) {
        ATC_CHECK(row != 0, "corrupt BWT stream (LF is not one cycle)");
        uint32_t e = tt[row];
        out[k] = static_cast<uint8_t>(e);
        row = e >> 8;
    }
}

std::vector<uint8_t>
bwtInverse(const uint8_t *data, size_t n, uint32_t primary)
{
    ATC_CHECK(n <= kMaxBwtBlock, "BWT block above the 2^24 - 1 byte cap");
    std::vector<BwtRun> runs;
    for (size_t i = 0; i < n;) {
        size_t j = i + 1;
        while (j < n && data[j] == data[i])
            ++j;
        runs.push_back({static_cast<uint32_t>(j - i), data[i]});
        i = j;
    }
    std::vector<uint8_t> out(n);
    bwtInverseRuns(runs.data(), runs.size(), n, primary, out.data());
    return out;
}

} // namespace atc::comp

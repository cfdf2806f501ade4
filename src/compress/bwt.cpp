#include "compress/bwt.hpp"

#include <algorithm>

#include "compress/sais.hpp"
#include "util/mmap.hpp"
#include "util/status.hpp"

namespace atc::comp {

namespace {

/**
 * This thread's word array of at least @p n entries: the suffix array
 * of a forward transform, or the LF array of an inverse. It keeps its
 * largest size, and a thread that runs both directions (a caller that
 * helps its pool) holds one.
 */
uint32_t *
words(size_t n)
{
    thread_local util::ScratchPages scratch;
    return reinterpret_cast<uint32_t *>(scratch.reserve(4 * n));
}

} // namespace

uint8_t *
bwtForward(const uint8_t *data, size_t n, uint64_t *starts)
{
    uint32_t *sa = words(n);
    suffixArray(data, n, reinterpret_cast<int32_t *>(sa));
    auto *out = reinterpret_cast<uint8_t *>(sa);
    if (n == 0)
        return out;

    // Conceptual matrix rows: row 0 is the sentinel suffix (BWT char is
    // the last input byte); rows 1..n are the suffixes in sa order, each
    // contributing the byte preceding it. The row of suffix 0 would
    // contribute the sentinel itself; it is skipped. The rows of the
    // suffixes at multiples of kBwtChainBytes, suffix 0's among them,
    // are the start rows. The bytes go over sa itself: byte o <= i + 1
    // is written after entry i is read, into an entry already read;
    // byte 0 goes last.
    size_t o = 1;
    for (size_t i = 0; i < n; ++i) {
        const uint32_t p = sa[i];
        if ((p & (kBwtChainBytes - 1)) == 0) {
            starts[p / kBwtChainBytes] = i + 1;
            if (p == 0)
                continue;
        }
        out[o++] = data[p - 1];
    }
    ATC_ASSERT(o == n);
    out[0] = data[n - 1];
    return out;
}

BwtResult
bwtForward(const uint8_t *data, size_t n)
{
    BwtResult result;
    result.starts.resize(bwtChainCount(n));
    const uint8_t *bwt = bwtForward(data, n, result.starts.data());
    result.data.assign(bwt, bwt + n);
    return result;
}

namespace {

/**
 * Chains the inverse walks in lockstep, at most: a 1 MiB block has
 * eight. On a shared 4-vCPU Xeon, eight walked 1 MiB blocks of
 * filtered suite planes ~1.3x as fast as four and ~4x as fast as one.
 */
constexpr size_t kBwtLanes = 8;

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
bwtInverseRuns(const BwtRun *runs, size_t count, size_t n,
               const uint64_t *starts, uint8_t *out)
{
    ATC_CHECK(n <= kMaxBwtBlock, "BWT block above the 2^24 - 1 byte cap");
    if (n == 0) {
        ATC_CHECK(count == 0, "BWT runs do not add up to the block");
        return;
    }
    const size_t chains = bwtChainCount(n);
    for (size_t k = 0; k < chains; ++k)
        ATC_CHECK(starts[k] >= 1 && starts[k] <= n,
                  "BWT start row out of range");

    // Conceptual array of n + 1 rows: the string with the sentinel
    // re-inserted at row `sentinel` (the primary index, starts[0]);
    // row 0 starts with the sentinel.
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
    // as bzip2's tt[]; the sentinel's row 0 leads to row `sentinel`.
    const auto sentinel = static_cast<uint32_t>(starts[0]);
    uint32_t *tt = words(n + 1);
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

    // Chain k walks forward from the row of text position
    // k * kBwtChainBytes and writes the bytes up to the next chain's
    // position, where it must end on that chain's start row; the last
    // chain must end on the sentinel's row 0. No walk may pass row 0
    // before that. tt[0] leads back to row `sentinel`, so these checks
    // hold if and only if the LF mapping is one cycle through the start
    // rows in order: the one walk from `sentinel`, cut into chains. Up
    // to kBwtLanes chains walk in lockstep; their loads are independent.
    const size_t last_len = n - (chains - 1) * kBwtChainBytes;
    for (size_t first = 0; first < chains; first += kBwtLanes) {
        const size_t lanes = std::min(kBwtLanes, chains - first);
        uint32_t row[kBwtLanes];
        uint8_t *dst[kBwtLanes];
        for (size_t j = 0; j < lanes; ++j) {
            row[j] = static_cast<uint32_t>(starts[first + j]);
            dst[j] = out + (first + j) * kBwtChainBytes;
        }
        bool passed_zero = false;
        auto walk = [&](size_t from, size_t to, size_t walking) {
            for (size_t k = from; k < to; ++k) {
                for (size_t j = 0; j < walking; ++j) {
                    passed_zero |= row[j] == 0;
                    uint32_t e = tt[row[j]];
                    dst[j][k] = static_cast<uint8_t>(e);
                    row[j] = e >> 8;
                }
            }
        };
        // Only the block's last chain can be shorter; it walks in the
        // last lane, which drops out once it is done.
        const bool last = first + lanes == chains;
        walk(0, last ? last_len : kBwtChainBytes, lanes);
        if (last && lanes > 1)
            walk(last_len, kBwtChainBytes, lanes - 1);
        ATC_CHECK(!passed_zero, "corrupt BWT stream (LF is not one cycle)");
        for (size_t j = 0; j < lanes; ++j) {
            size_t next = first + j + 1;
            ATC_CHECK(row[j] == (next < chains ? starts[next] : 0),
                      "corrupt BWT stream (LF is not one cycle)");
        }
    }
}

std::vector<uint8_t>
bwtInverse(const uint8_t *data, size_t n, const std::vector<uint64_t> &starts)
{
    ATC_CHECK(n <= kMaxBwtBlock, "BWT block above the 2^24 - 1 byte cap");
    ATC_CHECK(starts.size() == bwtChainCount(n),
              "BWT start rows do not match the block");
    std::vector<BwtRun> runs;
    for (size_t i = 0; i < n;) {
        size_t j = i + 1;
        while (j < n && data[j] == data[i])
            ++j;
        runs.push_back({static_cast<uint32_t>(j - i), data[i]});
        i = j;
    }
    std::vector<uint8_t> out(n);
    bwtInverseRuns(runs.data(), runs.size(), n, starts.data(), out.data());
    return out;
}

} // namespace atc::comp

/**
 * @file
 * Burrows-Wheeler transform (forward and inverse).
 *
 * Suffix-array based variant: the input is treated as if followed by a
 * unique sentinel smaller than every byte; the sentinel itself is not
 * emitted, its row index (the primary index) is returned instead.
 *
 * The inverse works from the runs of the transformed string, the form
 * the bwc decoder produces. As in bzip2's decoder, one array of n + 1
 * words holds, per row, the row of the next rotation (high 24 bits)
 * and that row's first byte (low 8 bits): building it costs a step per
 * run plus a vectorisable fill, and the walk that rebuilds the input
 * touches one word per byte. Rows in 24 bits cap a block at
 * kMaxBwtBlock bytes.
 */

#ifndef ATC_COMPRESS_BWT_HPP_
#define ATC_COMPRESS_BWT_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atc::comp {

/** Result of a forward BWT. */
struct BwtResult
{
    /** Transformed bytes, same length as the input. */
    std::vector<uint8_t> data;
    /**
     * Row of the dropped sentinel character, in [1, n] for nonempty
     * input. Required to invert the transform.
     */
    uint32_t primary = 0;
};

/** Largest block the inverse transform takes: 2^24 - 1 bytes. */
constexpr size_t kMaxBwtBlock = (size_t(1) << 24) - 1;

/** A run of one byte value in a transformed string. */
struct BwtRun
{
    uint32_t len;
    uint8_t byte;
};

/** Forward transform of [data, data+n). */
BwtResult bwtForward(const uint8_t *data, size_t n);

/**
 * Inverse transform from runs, written to @p out.
 *
 * The LF array is per-thread scratch, kept between calls.
 *
 * @param runs    runs of the transformed string, in order
 * @param count   number of runs
 * @param n       length of the string (the sum of the run lengths), at
 *                most kMaxBwtBlock
 * @param primary primary index returned by bwtForward
 * @param out     receives the n original bytes
 * @throws util::Error on a primary outside [1, n], runs that do not add
 *         up to n, or an LF mapping that is not one cycle
 */
void bwtInverseRuns(const BwtRun *runs, size_t count, size_t n,
                    uint64_t primary, uint8_t *out);

/** Inverse transform of [data, data+n): its runs, then bwtInverseRuns. */
std::vector<uint8_t> bwtInverse(const uint8_t *data, size_t n,
                                uint32_t primary);

} // namespace atc::comp

#endif // ATC_COMPRESS_BWT_HPP_

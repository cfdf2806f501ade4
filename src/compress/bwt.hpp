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
 *
 * Each step of the walk is a load that depends on the one before, so
 * one walk is bound by load latency. The forward transform therefore
 * also returns the start rows: the row of every text position
 * k * L(n), where L(n) = max(2^12, pow2ceil(ceil(n / 16))), so a text
 * has at most 16 chains and a 32 KiB one has 8. The inverse walks the
 * chains between them in lockstep, all at once over the one LF array,
 * so their loads overlap (as libsais's sampled primary indices do).
 *
 * The bwc codec transforms a block's RLE1 text (rle.hpp), not its raw
 * bytes, so there n, the chains and the start rows count positions of
 * that text, which is at most 1.25 times the block.
 */

#ifndef ATC_COMPRESS_BWT_HPP_
#define ATC_COMPRESS_BWT_HPP_

#include <algorithm>
#include <bit>
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
     * Start rows: starts[k] is the row of text position
     * k * bwtChainBytes(n), in [1, n], for k < bwtChainCount(n).
     * starts[0] is the primary index, the row of the dropped sentinel
     * character. Required to invert the transform.
     */
    std::vector<uint64_t> starts;
};

/** Largest block the inverse transform takes: 2^24 - 1 bytes. */
constexpr size_t kMaxBwtBlock = (size_t(1) << 24) - 1;

/**
 * Most chains of one text, all of which the inverse walks in lockstep.
 * Over 1 MiB blocks of filtered suite planes, 16 lanes walked ~1.2x as
 * fast as 8 on a shared 4-vCPU Xeon.
 */
constexpr size_t kBwtMaxChains = 16;

/**
 * Text bytes per chain of the inverse walk of an n-byte text:
 * max(2^12, pow2ceil(ceil(n / kBwtMaxChains))), a power of two.
 */
constexpr size_t
bwtChainBytes(size_t n)
{
    return std::max(size_t(1) << 12,
                    std::bit_ceil((n + kBwtMaxChains - 1) / kBwtMaxChains));
}

/** Start rows of an n-byte text: ceil(n / bwtChainBytes(n)), at most
 *  kBwtMaxChains. */
constexpr size_t
bwtChainCount(size_t n)
{
    return (n + bwtChainBytes(n) - 1) / bwtChainBytes(n);
}

/** A run of one byte value in a transformed string. */
struct BwtRun
{
    uint32_t len;
    uint8_t byte;
};

/**
 * Forward transform of [data, data+n), with its bwtChainCount(n) start
 * rows written to @p starts.
 *
 * The suffix array is this thread's scratch, kept between calls (the
 * inverse's LF array shares it), and the transform is written over it.
 *
 * @return the n transformed bytes, which the caller may change; valid
 *         until this thread's next forward or inverse transform
 */
uint8_t *bwtForward(const uint8_t *data, size_t n, uint64_t *starts);

/** The same into a fresh BwtResult. */
BwtResult bwtForward(const uint8_t *data, size_t n);

/**
 * Inverse transform from runs, written to @p out.
 *
 * The LF array is this thread's scratch, kept between calls.
 *
 * @param runs   runs of the transformed string, in order
 * @param count  number of runs
 * @param n      length of the string (the sum of the run lengths), at
 *               most kMaxBwtBlock
 * @param starts bwtChainCount(n) start rows, as bwtForward returns
 *               them; 64-bit, so that a corrupt value cannot wrap into
 *               range
 * @param out    receives the n original bytes
 * @throws util::Error on a start row outside [1, n], runs that do not
 *         add up to n, or an LF mapping that is not one cycle through
 *         the start rows in order
 */
void bwtInverseRuns(const BwtRun *runs, size_t count, size_t n,
                    const uint64_t *starts, uint8_t *out);

/**
 * Inverse transform of [data, data+n): its runs, then bwtInverseRuns.
 * @throws util::Error also if @p starts does not hold bwtChainCount(n)
 *         rows
 */
std::vector<uint8_t> bwtInverse(const uint8_t *data, size_t n,
                                const std::vector<uint64_t> &starts);

} // namespace atc::comp

#endif // ATC_COMPRESS_BWT_HPP_

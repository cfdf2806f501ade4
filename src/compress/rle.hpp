/**
 * @file
 * The two run-length stages of bwc: bzip2's RLE1 before the BWT, and
 * the zero-run recoding (bzip2's RUNA/RUNB scheme) after MTF, with the
 * bwc decoder's first stage.
 *
 * RLE1 turns each run of 4 to kRle1MaxRun equal bytes into its first
 * 4 bytes and a count byte (the run length - 4). A longer run is cut
 * into groups of kRle1MaxRun from its start; a rest under 4 bytes
 * stays literal. A decoder that has seen 4 equal bytes since the last
 * count reads the next byte as a count, so the text of n bytes is at
 * most n + n / 4 long (all runs of 4), and the BWT sorts fewer
 * suffixes when the block holds long runs.
 *
 * After MTF, zeros dominate. Runs of zeros are rewritten as bijective
 * base-2 numerals over two dedicated symbols; nonzero bytes shift up by
 * one. The resulting symbols feed the entropy coder.
 *
 * Decoding never writes the MTF bytes out: mtfRleToRuns undoes the
 * zero-run coding and the move-to-front in one pass straight to the
 * runs of the BWT string, so a run of zeros costs one step however
 * long it is.
 *
 * Alphabet (width kAlphabet = 258):
 *   0       RUNA (run digit, weight 1)
 *   1       RUNB (run digit, weight 2)
 *   2..256  literal bytes 1..255 (value + 1)
 *   257     EOB (end of block)
 */

#ifndef ATC_COMPRESS_RLE_HPP_
#define ATC_COMPRESS_RLE_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bwt.hpp"

namespace atc::comp {

/** Symbol values for the zero-run alphabet. */
enum RleSymbol : uint16_t
{
    kRunA = 0,
    kRunB = 1,
    kEob = 257,
};

/** Number of distinct symbols the recoding can produce. */
constexpr int kRleAlphabet = 258;

/** Longest run one RLE1 group holds: 4 bytes and a count of 255. */
constexpr size_t kRle1MaxRun = 259;

/** Longest RLE1 text of an n-byte block: n + n / 4 (runs of 4). */
constexpr size_t
rle1Bound(size_t n)
{
    return n + n / 4;
}

/**
 * RLE1-code @p n bytes into @p out, which has room for rle1Bound(n).
 * @return the length of the text written
 */
size_t rle1Encode(const uint8_t *data, size_t n, uint8_t *out);

/**
 * Expand an RLE1 text into exactly @p raw_size bytes at @p out.
 *
 * Every literal span and group is checked against what remains of
 * @p raw_size before it is written, so a corrupt count cannot write
 * past the block.
 *
 * @throws util::Error on a text that expands to more or fewer than
 *         @p raw_size bytes, or that ends on 4 equal bytes without
 *         their count
 */
void rle1Decode(const uint8_t *text, size_t len, uint8_t *out,
                size_t raw_size);

/**
 * Recode @p n MTF bytes into run-length symbols in @p out (cleared
 * first). The EOB symbol is appended.
 */
void rleEncode(const uint8_t *data, size_t n, std::vector<uint16_t> &out);

/** The same into a fresh vector. */
std::vector<uint16_t> rleEncode(const uint8_t *data, size_t n);

/**
 * Decode run-length symbols of a move-to-front coded BWT string back to
 * the string's runs (a fresh MTF state, as mtfEncode starts from).
 * Adjacent runs hold different bytes.
 *
 * Every run is checked against what remains of @p raw_size before it
 * is recorded, so a corrupt zero run cannot grow past the block.
 *
 * @param symbols  encoded stream, ending in its only EOB
 * @param count    number of symbols
 * @param raw_size length of the BWT string, at most kMaxBwtBlock
 * @param runs     cleared, then receives the runs
 * @throws util::Error on a missing EOB, symbols after it, an invalid
 *         symbol, or runs that do not add up to @p raw_size
 */
void mtfRleToRuns(const uint16_t *symbols, size_t count, size_t raw_size,
                  std::vector<BwtRun> &runs);

} // namespace atc::comp

#endif // ATC_COMPRESS_RLE_HPP_

/**
 * @file
 * Zero-run-length recoding (bzip2's RUNA/RUNB scheme), and the bwc
 * decoder's first stage.
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

/**
 * Recode @p n MTF bytes into run-length symbols.
 * The EOB symbol is appended.
 */
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

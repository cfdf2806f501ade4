/**
 * @file
 * Linear-time suffix array construction (SA-IS).
 *
 * Nong/Zhang/Chan induced sorting, laid out as in Mori's sais: the
 * first level runs on the input bytes themselves behind an implicit
 * sentinel (no widened copy of the text), suffix types ride in the
 * sign bit of the suffix-array entries instead of a separate array,
 * and the LMS names and lengths live in the array's free half, so only
 * the reduced string recurses, as int32 symbols. This is the engine
 * behind the Burrows-Wheeler transform used by the BWC codec (the
 * stand-in for the paper's bzip2 back end). Complexity is O(n) time;
 * the working space is the 4n-byte result plus two bucket arrays per
 * level.
 */

#ifndef ATC_COMPRESS_SAIS_HPP_
#define ATC_COMPRESS_SAIS_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atc::comp {

/**
 * Compute the suffix array of @p data.
 *
 * Suffix i is data[i..n-1]; suffixes are compared as if the string were
 * followed by a sentinel strictly smaller than every byte value.
 *
 * @param data input bytes (may be null when n == 0)
 * @param n    input length, below 2^31 - 1
 * @return permutation sa of [0, n) with suffix sa[0] < suffix sa[1] < ...
 * @throws util::Error when @p n is too large for int32 positions
 */
std::vector<int32_t> suffixArray(const uint8_t *data, size_t n);

/** The same into @p sa, which has room for @p n entries. */
void suffixArray(const uint8_t *data, size_t n, int32_t *sa);

} // namespace atc::comp

#endif // ATC_COMPRESS_SAIS_HPP_

/**
 * @file
 * Move-to-front recoding over the byte alphabet.
 *
 * Applied after the BWT: local symbol reuse becomes runs of small
 * values (mostly zeros), which the zero-run RLE and the entropy coder
 * then squeeze. Only the encoder lives here: the bwc decoder undoes
 * MTF and the zero-run coding together, one step per run
 * (mtfRleToRuns in rle.hpp).
 */

#ifndef ATC_COMPRESS_MTF_HPP_
#define ATC_COMPRESS_MTF_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atc::comp {

/** Stateful move-to-front coder (alphabet of 256 byte values). */
class MtfCoder
{
  public:
    /** Start from the identity alphabet ordering 0,1,...,255. */
    MtfCoder();

    /** Encode one byte: emit its rank and move it to the front. */
    uint8_t encode(uint8_t value);

    /** Reset to the identity ordering. */
    void reset();

  private:
    uint8_t order_[256];
};

/** Encode a whole buffer (fresh coder state). */
std::vector<uint8_t> mtfEncode(const uint8_t *data, size_t n);

} // namespace atc::comp

#endif // ATC_COMPRESS_MTF_HPP_

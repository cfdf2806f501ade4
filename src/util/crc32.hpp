/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected): the per-frame checksum
 * that compress/stream.cpp keeps in each stream's frame index, and the
 * audit checksum of sampling-study windows.
 */

#ifndef ATC_UTIL_CRC32_HPP_
#define ATC_UTIL_CRC32_HPP_

#include <cstddef>
#include <cstdint>

namespace atc::util {

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Mix @p n bytes at @p data into the checksum. */
    void update(const uint8_t *data, size_t n);

    /** @return the finalized checksum for everything seen so far. */
    uint32_t value() const { return ~state_; }

    /** Reset to the empty-input state. */
    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of [data, data+n). */
uint32_t crc32(const uint8_t *data, size_t n);

} // namespace atc::util

#endif // ATC_UTIL_CRC32_HPP_

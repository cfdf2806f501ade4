/**
 * @file
 * Bit-granular writer/reader on top of byte streams.
 *
 * Used by the Huffman coders. Bits are packed MSB-first within each
 * byte, which keeps canonical-Huffman codes comparable as integers.
 * Both sides move whole fields through a 64-bit accumulator: the
 * writer hands its sink four bytes at a time, and the reader loads
 * eight at a time from a frame it borrows whole.
 */

#ifndef ATC_UTIL_BITIO_HPP_
#define ATC_UTIL_BITIO_HPP_

#include <cstdint>
#include <cstring>

#include "util/bytestream.hpp"
#include "util/status.hpp"

namespace atc::util {

/** MSB-first bit writer accumulating into a ByteSink, 32 bits at a
 *  time; alignAndFlush() writes the rest. */
class BitWriter
{
  public:
    /** Write into @p sink, which must outlive the writer. */
    explicit BitWriter(ByteSink &sink) : sink_(sink) {}

    /** Append the low @p nbits bits of @p value, MSB of the field first. */
    void
    writeBits(uint32_t value, int nbits)
    {
        ATC_ASSERT(nbits >= 0 && nbits <= 32);
        // fill_ < 32 here, so the field fits the accumulator whole;
        // bits above fill_ are stale and never written.
        acc_ = (acc_ << nbits) | (value & ((uint64_t(1) << nbits) - 1));
        fill_ += nbits;
        bits_ += static_cast<uint64_t>(nbits);
        if (fill_ >= 32) {
            fill_ -= 32;
            writeBytes(static_cast<uint32_t>(acc_ >> fill_), 4);
        }
    }

    /** Append a single bit. */
    void writeBit(uint32_t bit) { writeBits(bit & 1u, 1); }

    /** Pad with zero bits to the next byte boundary and flush. */
    void
    alignAndFlush()
    {
        const int bytes = (fill_ + 7) / 8;
        bits_ += static_cast<uint64_t>(8 * bytes - fill_);
        writeBytes(static_cast<uint32_t>(acc_ << (8 * bytes - fill_)), bytes);
        fill_ = 0;
    }

    /** @return total bits written (including alignment padding). */
    uint64_t bitCount() const { return bits_; }

  private:
    /** Write the low @p n bytes of @p word, most significant first. */
    void
    writeBytes(uint32_t word, int n)
    {
        uint8_t buf[4];
        for (int i = 0; i < n; ++i)
            buf[i] = static_cast<uint8_t>(word >> (8 * (n - 1 - i)));
        if (n > 0)
            sink_.write(buf, static_cast<size_t>(n));
    }

    ByteSink &sink_;
    uint64_t acc_ = 0;
    int fill_ = 0; ///< pending bits in the low end of acc_, < 32
    uint64_t bits_ = 0;
};

/**
 * MSB-first bit reader over the rest of a ByteSource, 64 bits at a
 * time.
 *
 * It borrows every byte left in the source at once (view() of
 * remaining()), so the source must lend them, as the frame decoder's
 * MemorySource does: the bytes are the frame's own, bounded by its
 * compressed length. Past the last byte it reads zeros and counts
 * them. A stream that uses any of them read past its frame; see
 * readBitStream(), which turns that into the source's truncation error
 * whatever the decoder made of the zeros.
 */
class BitReader
{
  public:
    /** Borrow the rest of @p src, which must outlive the reader. */
    explicit BitReader(ByteSource &src) : src_(src)
    {
        static const uint8_t kNone = 0;
        size_ = src.remaining();
        data_ = size_ == 0 ? &kNone
                           : size_ != UINT64_MAX ? src.view(size_) : nullptr;
        ATC_CHECK(data_ != nullptr,
                  "a bit stream needs a source that lends its bytes");
    }

    /** Top the window up to at least 56 bits. */
    void
    refill()
    {
        if (pos_ + 8 <= size_) {
            uint64_t w;
            std::memcpy(&w, data_ + pos_, 8);
            acc_ |= __builtin_bswap64(w) >> fill_;
            pos_ += static_cast<uint64_t>(63 - fill_) >> 3;
            fill_ |= 56;
        } else {
            refillTail();
        }
    }

    /** The next @p n bits (1 to 56) without consuming them; needs a
     *  refill() since more than fill() - n bits were consumed. */
    uint64_t peek(int n) const { return acc_ >> (64 - n); }

    /** Drop the next @p n bits, at most fill(). */
    void
    consume(int n)
    {
        acc_ <<= n;
        fill_ -= n;
    }

    /** Read @p nbits bits (0 to 32), MSB of the field first. */
    uint32_t
    readBits(int nbits)
    {
        ATC_ASSERT(nbits >= 0 && nbits <= 32);
        if (nbits == 0)
            return 0;
        refill();
        const auto v = static_cast<uint32_t>(peek(nbits));
        consume(nbits);
        return v;
    }

    /** @return whether the stream has used a bit past its last byte. */
    bool overran() const { return 8 * pos_ - fill_ > 8 * size_; }

    /**
     * Fail as the source does on a read past its end: the stream asked
     * for more bytes than the source holds.
     */
    [[noreturn]] void
    raiseTruncated()
    {
        uint8_t b;
        src_.readExact(&b, 1); // nothing is left: throws, and says why
        raise("byte source truncated");
    }

    /**
     * End the stream: skip to the next byte boundary, which must be
     * the last byte of the source.
     * @throws Error on a stream that used a bit past the end, or that
     *         leaves whole bytes unread
     */
    void
    finish()
    {
        if (overran())
            raiseTruncated();
        const uint64_t used = (8 * pos_ - fill_ + 7) / 8;
        ATC_CHECK(used == size_, "bytes left after the end of a bit stream");
    }

  private:
    /** The refill of the last 8 bytes: one at a time, zeros past them. */
    void
    refillTail()
    {
        for (; fill_ <= 56; fill_ += 8, ++pos_) {
            if (pos_ < size_)
                acc_ |= uint64_t(data_[pos_]) << (56 - fill_);
        }
        // Every bit the window held before reading 8 bytes of zeros is
        // used by now: the stream is past its end.
        if (pos_ > size_ + 8)
            raiseTruncated();
    }

    ByteSource &src_;
    const uint8_t *data_;
    uint64_t size_;
    uint64_t pos_ = 0;  ///< next byte to load; past size_ counts zeros
    uint64_t acc_ = 0;  ///< the window, MSB first, then bytes after it
    int fill_ = 0;      ///< bits in the window
};

/**
 * Decode the bit stream that is the rest of @p src: run @p fn on a
 * BitReader over it, then finish() it. An error @p fn raises after it
 * read past the end (a cut stream decodes zeros, which may fail any
 * way) is the source's truncation error instead.
 */
template <typename Fn>
void
readBitStream(ByteSource &src, Fn &&fn)
{
    BitReader br(src);
    try {
        fn(br);
    } catch (const Error &) {
        if (br.overran())
            br.raiseTruncated();
        throw;
    }
    br.finish();
}

} // namespace atc::util

#endif // ATC_UTIL_BITIO_HPP_

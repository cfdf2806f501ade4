/**
 * @file
 * Byte-stream abstractions used throughout the compression pipeline.
 *
 * ByteSink consumes bytes; ByteSource produces them. Memory- and
 * file-backed implementations are provided. These are the seams through
 * which codecs, the container format and the benches talk to storage,
 * mirroring the pipe-based design of the original ATC tool (which forked
 * an external bzip2 process).
 */

#ifndef ATC_UTIL_BYTESTREAM_HPP_
#define ATC_UTIL_BYTESTREAM_HPP_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace atc::util {

/** Abstract consumer of a byte stream. */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Append @p n bytes starting at @p data. */
    virtual void write(const uint8_t *data, size_t n) = 0;

    /** Append a single byte. */
    void writeByte(uint8_t b) { write(&b, 1); }

    /** Flush buffered state to the underlying medium (optional). */
    virtual void flush() {}
};

/** Abstract producer of a byte stream. */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Read up to @p n bytes into @p data.
     * @return number of bytes produced; 0 means end of stream.
     */
    virtual size_t read(uint8_t *data, size_t n) = 0;

    /**
     * Read exactly @p n bytes or throw Error on truncation.
     */
    void
    readExact(uint8_t *data, size_t n)
    {
        size_t got = 0;
        while (got < n) {
            size_t r = read(data + got, n - got);
            if (r == 0)
                raise("byte source truncated");
            got += r;
        }
    }

    /**
     * Discard exactly @p n bytes or throw Error on truncation. The
     * default reads into a scratch buffer; seekable sources (files,
     * memory) override it with O(1) repositioning — the primitive that
     * lets an index scan walk frame headers without touching payloads.
     */
    virtual void skip(uint64_t n);

    /**
     * Zero-copy fast path: borrow the next @p n bytes in place and
     * advance past them, or return nullptr when the source cannot
     * serve a contiguous borrowed span (the stdio default) — callers
     * then fall back to readExact() into their own buffer. A non-null
     * span stays valid for the lifetime of the backing storage (see
     * viewKeepalive()), not just until the next read.
     */
    virtual const uint8_t *view(size_t n)
    {
        (void)n;
        return nullptr;
    }

    /**
     * Ownership token pinning the storage behind view() spans. Holders
     * that outlive this source (pooled decode tasks) must retain it;
     * nullptr means the spans borrow storage this source never owned
     * (MemorySource) and the caller's existing lifetime contract
     * applies.
     */
    virtual std::shared_ptr<const void> viewKeepalive() const
    {
        return nullptr;
    }
};

/** Sink that appends to an in-memory vector. */
class VectorSink : public ByteSink
{
  public:
    /** Wrap @p out; the vector must outlive the sink. */
    explicit VectorSink(std::vector<uint8_t> &out) : out_(out) {}

    void
    write(const uint8_t *data, size_t n) override
    {
        out_.insert(out_.end(), data, data + n);
    }

  private:
    std::vector<uint8_t> &out_;
};

/** Source that reads from a borrowed memory span. */
class MemorySource : public ByteSource
{
  public:
    /** Wrap [data, data+n); the memory must outlive the source. */
    MemorySource(const uint8_t *data, size_t n) : data_(data), size_(n) {}

    /** Convenience constructor over a vector. */
    explicit MemorySource(const std::vector<uint8_t> &v)
        : data_(v.data()), size_(v.size())
    {}

    size_t
    read(uint8_t *data, size_t n) override
    {
        size_t avail = size_ - pos_;
        size_t take = n < avail ? n : avail;
        if (take != 0)
            std::memcpy(data, data_ + pos_, take);
        pos_ += take;
        overran_ |= take < n;
        return take;
    }

    void
    skip(uint64_t n) override
    {
        if (n > size_ - pos_) {
            overran_ = true;
            raise("byte source truncated");
        }
        pos_ += static_cast<size_t>(n);
    }

    const uint8_t *
    view(size_t n) override
    {
        if (n > size_ - pos_)
            return nullptr;
        const uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /** @return bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** @return whether a read or skip asked for more than remained. */
    bool overran() const { return overran_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool overran_ = false;
};

/** Sink writing to a file (buffered via stdio). */
class FileSink : public ByteSink
{
  public:
    /** Open @p path for writing; throws Error on failure. */
    explicit FileSink(const std::string &path);
    ~FileSink() override;

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    void write(const uint8_t *data, size_t n) override;
    void flush() override;

    /** Close the file; further writes are invalid. */
    void close();

    /** @return total bytes written so far. */
    uint64_t bytesWritten() const { return written_; }

  private:
    std::FILE *fp_ = nullptr;
    uint64_t written_ = 0;
};

/** Source reading from a file (buffered via stdio). */
class FileSource : public ByteSource
{
  public:
    /** Open @p path for reading; throws Error on failure. */
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    size_t read(uint8_t *data, size_t n) override;

    /** O(1) via fseek; throws Error when @p n runs past end of file. */
    void skip(uint64_t n) override;

  private:
    std::FILE *fp_ = nullptr;
    /** File size, computed lazily on the first skip(); -1 = unknown. */
    int64_t size_ = -1;
};

/** Counting sink that discards data but tracks its size. */
class CountingSink : public ByteSink
{
  public:
    void write(const uint8_t *, size_t n) override { count_ += n; }

    /** @return total bytes "written". */
    uint64_t count() const { return count_; }

  private:
    uint64_t count_ = 0;
};

/** Append a little-endian fixed-width integer to a sink. */
template <typename T>
void
writeLE(ByteSink &sink, T value)
{
    uint8_t buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i)
        buf[i] = static_cast<uint8_t>(value >> (8 * i));
    sink.write(buf, sizeof(T));
}

/** Read a little-endian fixed-width integer; throws on truncation. */
template <typename T>
T
readLE(ByteSource &src)
{
    uint8_t buf[sizeof(T)];
    src.readExact(buf, sizeof(T));
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(buf[i]) << (8 * i);
    return value;
}

/** @return every byte left in @p src; memory grows only with the bytes
 *  the source actually holds. */
std::vector<uint8_t> readToEnd(ByteSource &src);

/** @return the encoded size of @p value as an unsigned LEB128 varint. */
inline size_t
varintLen(uint64_t value)
{
    size_t n = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++n;
    }
    return n;
}

/** Append an unsigned LEB128 varint. */
void writeVarint(ByteSink &sink, uint64_t value);

/** Read an unsigned LEB128 varint; throws on truncation/overflow. */
uint64_t readVarint(ByteSource &src);

} // namespace atc::util

#endif // ATC_UTIL_BYTESTREAM_HPP_

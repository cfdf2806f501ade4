/**
 * @file
 * Memory-mapped file access: the zero-copy fast path under the
 * ByteSource seam.
 *
 * MappedFile is an RAII read-only mapping of a regular file; MmapSource
 * adapts one to the ByteSource interface, serving borrowed spans
 * through view() so frame decodes run straight off the page cache
 * instead of copying through stdio. openFileSource() is the policy
 * point: it tries to map and falls back to FileSource for anything
 * unmappable (pipes, stdin, special files, exotic filesystems), so
 * every consumer keeps working on every input.
 *
 * Borrowed spans stay valid for the mapping's lifetime, not the
 * source's position — pooled decoders that outlive the read loop pin
 * the mapping via viewKeepalive().
 *
 * ScratchPages is the other use of mmap here: the codec's per-thread
 * scratch arrays in anonymous mappings of their own.
 */

#ifndef ATC_UTIL_MMAP_HPP_
#define ATC_UTIL_MMAP_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/bytestream.hpp"

namespace atc::util {

/** Read-only memory mapping of one regular file. */
class MappedFile
{
  public:
    /**
     * Map @p path read-only. Returns nullptr when the file is not a
     * mappable regular file (missing, empty, a pipe/device, or the
     * platform lacks mmap) — callers fall back to FileSource.
     */
    static std::shared_ptr<const MappedFile> map(const std::string &path);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** @return start of the mapping. */
    const uint8_t *data() const { return data_; }

    /** @return mapped length in bytes. */
    size_t size() const { return size_; }

    /**
     * Borrow [off, off+len) of the mapping.
     * @return span start, or nullptr when the range is out of bounds
     */
    const uint8_t *
    view(uint64_t off, size_t len) const
    {
        if (off > size_ || len > size_ - off)
            return nullptr;
        return data_ + off;
    }

  private:
    MappedFile(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    const uint8_t *data_;
    size_t size_;
};

/** ByteSource over a shared MappedFile; view() serves borrowed spans. */
class MmapSource : public ByteSource
{
  public:
    explicit MmapSource(std::shared_ptr<const MappedFile> file)
        : file_(std::move(file))
    {}

    size_t read(uint8_t *data, size_t n) override;

    /** O(1); throws Error when @p n runs past the end (like FileSource). */
    void skip(uint64_t n) override;

    const uint8_t *view(size_t n) override;

    std::shared_ptr<const void>
    viewKeepalive() const override
    {
        return file_;
    }

    uint64_t remaining() const override { return file_->size() - pos_; }

  private:
    std::shared_ptr<const MappedFile> file_;
    size_t pos_ = 0;
};

/**
 * Open @p path for reading: map it, falling back to a FileSource when
 * mapping fails (counted in io.mmap_fallbacks). Throws Error when the
 * file cannot be opened at all.
 */
std::unique_ptr<ByteSource> openFileSource(const std::string &path);

/**
 * Grow-only scratch memory in an anonymous mapping of its own, for the
 * per-thread arrays of the bwc codec. Unlike a vector's, it never sits
 * in a malloc arena: its pages go back to the system when the thread
 * that holds it ends, sizes that change from block to block leave no
 * freed holes behind, and pages never touched take no memory.
 */
class ScratchPages
{
  public:
    ScratchPages() = default;
    ~ScratchPages();

    ScratchPages(const ScratchPages &) = delete;
    ScratchPages &operator=(const ScratchPages &) = delete;

    /**
     * @return at least @p bytes of memory; what it held is lost when it
     *         grows
     * @throws std::bad_alloc when the system refuses a mapping
     */
    uint8_t *reserve(size_t bytes);

  private:
    uint8_t *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace atc::util

#endif // ATC_UTIL_MMAP_HPP_

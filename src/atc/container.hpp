/**
 * @file
 * Compressed-trace containers.
 *
 * An ATC trace is a set of chunks plus an INFO stream (paper §6 and
 * Figure 8: a directory holding `1.bz2`, `2.bz2`, ... and `INFO.bz2`).
 * ChunkStore abstracts the storage so the codec logic is testable in
 * memory; DirectoryStore reproduces the on-disk layout.
 */

#ifndef ATC_ATC_CONTAINER_HPP_
#define ATC_ATC_CONTAINER_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/bytestream.hpp"

namespace atc::core {

/** Abstract storage for chunks and the INFO stream. */
class ChunkStore
{
  public:
    virtual ~ChunkStore() = default;

    /** Create chunk @p id for writing (ids are dense, from 0). */
    virtual std::unique_ptr<util::ByteSink> createChunk(uint32_t id) = 0;

    /** Open chunk @p id for reading. */
    virtual std::unique_ptr<util::ByteSource> openChunk(uint32_t id) = 0;

    /** Create the INFO stream for writing. */
    virtual std::unique_ptr<util::ByteSink> createInfo() = 0;

    /** Open the INFO stream for reading. */
    virtual std::unique_ptr<util::ByteSource> openInfo() = 0;

    /** @return total stored bytes (chunks + INFO), the paper's `du -b`
     *  accounting used for bits-per-address numbers. */
    virtual uint64_t totalBytes() const = 0;
};

/**
 * Directory-backed store, mirroring the original tool's layout:
 * `<dir>/<id+1>.<suffix>` per chunk and `<dir>/INFO.<suffix>`.
 */
class DirectoryStore : public ChunkStore
{
  public:
    /**
     * @param dir    directory path; created if absent
     * @param suffix file suffix, e.g. "bwc" (paper: "bz2")
     */
    DirectoryStore(const std::string &dir, const std::string &suffix);

    std::unique_ptr<util::ByteSink> createChunk(uint32_t id) override;
    std::unique_ptr<util::ByteSource> openChunk(uint32_t id) override;
    std::unique_ptr<util::ByteSink> createInfo() override;
    std::unique_ptr<util::ByteSource> openInfo() override;
    uint64_t totalBytes() const override;

    /** @return path of chunk @p id. */
    std::string chunkPath(uint32_t id) const;

    /** @return path of the INFO file. */
    std::string infoPath() const;

  private:
    std::string dir_;
    std::string suffix_;
};

/** In-memory store for tests and size measurements. */
class MemoryStore : public ChunkStore
{
  public:
    std::unique_ptr<util::ByteSink> createChunk(uint32_t id) override;
    std::unique_ptr<util::ByteSource> openChunk(uint32_t id) override;
    std::unique_ptr<util::ByteSink> createInfo() override;
    std::unique_ptr<util::ByteSource> openInfo() override;
    uint64_t totalBytes() const override;

    /** @return number of chunks created. */
    size_t chunkCount() const { return chunks_.size(); }

    /** @return raw bytes of the INFO stream. */
    const std::vector<uint8_t> &infoBytes() const { return info_; }

    /** @return raw bytes of chunk @p id. */
    const std::vector<uint8_t> &chunkBytes(uint32_t id) const;

  private:
    std::map<uint32_t, std::vector<uint8_t>> chunks_;
    std::vector<uint8_t> info_;
};

} // namespace atc::core

#endif // ATC_ATC_CONTAINER_HPP_

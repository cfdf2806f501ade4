#include "atc/container.hpp"

#include <filesystem>

#include "util/mmap.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace fs = std::filesystem;

DirectoryStore::DirectoryStore(const std::string &dir,
                               const std::string &suffix)
    : dir_(dir), suffix_(suffix)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    ATC_CHECK(!ec, "cannot create trace directory " + dir_);
}

std::string
DirectoryStore::chunkPath(uint32_t id) const
{
    // The original tool numbers chunk files from 1.
    return dir_ + "/" + std::to_string(id + 1) + "." + suffix_;
}

std::string
DirectoryStore::infoPath() const
{
    return dir_ + "/INFO." + suffix_;
}

std::unique_ptr<util::ByteSink>
DirectoryStore::createChunk(uint32_t id)
{
    return std::make_unique<util::FileSink>(chunkPath(id));
}

std::unique_ptr<util::ByteSource>
DirectoryStore::openChunk(uint32_t id)
{
    // A missing or empty chunk file is a partially written or truncated
    // container; fail here with a path-specific message instead of
    // letting the decoder report a generic truncation deeper down.
    std::string path = chunkPath(id);
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    ATC_CHECK(!ec, "missing chunk file " + path +
                       " (truncated or partially written container?)");
    ATC_CHECK(size > 0, "chunk file " + path +
                            " is empty (truncated container?)");
    return util::openFileSource(path);
}

std::unique_ptr<util::ByteSink>
DirectoryStore::createInfo()
{
    return std::make_unique<util::FileSink>(infoPath());
}

std::unique_ptr<util::ByteSource>
DirectoryStore::openInfo()
{
    return util::openFileSource(infoPath());
}

uint64_t
DirectoryStore::totalBytes() const
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (entry.is_regular_file())
            total += entry.file_size();
    }
    return total;
}

std::unique_ptr<util::ByteSink>
MemoryStore::createChunk(uint32_t id)
{
    return std::make_unique<util::VectorSink>(chunks_[id]);
}

std::unique_ptr<util::ByteSource>
MemoryStore::openChunk(uint32_t id)
{
    auto it = chunks_.find(id);
    ATC_CHECK(it != chunks_.end(),
              "unknown chunk " + std::to_string(id));
    ATC_CHECK(!it->second.empty(), "chunk " + std::to_string(id) +
                                       " is empty (truncated container?)");
    return std::make_unique<util::MemorySource>(it->second);
}

std::unique_ptr<util::ByteSink>
MemoryStore::createInfo()
{
    info_.clear();
    return std::make_unique<util::VectorSink>(info_);
}

std::unique_ptr<util::ByteSource>
MemoryStore::openInfo()
{
    return std::make_unique<util::MemorySource>(info_);
}

uint64_t
MemoryStore::totalBytes() const
{
    uint64_t total = info_.size();
    for (const auto &[id, bytes] : chunks_)
        total += bytes.size();
    return total;
}

const std::vector<uint8_t> &
MemoryStore::chunkBytes(uint32_t id) const
{
    auto it = chunks_.find(id);
    ATC_CHECK(it != chunks_.end(),
              "unknown chunk " + std::to_string(id));
    return it->second;
}

} // namespace atc::core

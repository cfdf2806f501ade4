#include "util/mmap.hpp"

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace atc::util {

namespace {

// Mapping accounting, alongside the stdio io.read_* family: opens and
// fallbacks tell which source actually served a run, view_bytes is the
// zero-copy traffic that never went through read().
struct MmapMetrics {
    obs::Counter &opens;
    obs::Counter &mapped_bytes;
    obs::Counter &fallbacks;
    obs::Counter &view_bytes;
};

MmapMetrics &
mmapMetrics()
{
    auto &r = obs::Registry::global();
    static MmapMetrics m{
        r.counter("io.mmap_opens"),   r.counter("io.mmap_bytes"),
        r.counter("io.mmap_fallbacks"), r.counter("io.view_bytes"),
    };
    return m;
}

} // namespace

std::shared_ptr<const MappedFile>
MappedFile::map(const std::string &path)
{
#if defined(_WIN32)
    (void)path;
    return nullptr;
#else
    int fd = -1;
    do {
        fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return nullptr;

    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
        ::close(fd);
        return nullptr;
    }
    size_t size = static_cast<size_t>(st.st_size);
    void *p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping holds its own reference to the file; the descriptor
    // is no longer needed either way.
    ::close(fd);
    if (p == MAP_FAILED)
        return nullptr;

    MmapMetrics &m = mmapMetrics();
    m.opens.inc();
    m.mapped_bytes.add(static_cast<int64_t>(size));
    return std::shared_ptr<const MappedFile>(
        new MappedFile(static_cast<const uint8_t *>(p), size));
#endif
}

MappedFile::~MappedFile()
{
#if !defined(_WIN32)
    if (data_ != nullptr)
        ::munmap(const_cast<uint8_t *>(data_), size_);
#endif
}

size_t
MmapSource::read(uint8_t *data, size_t n)
{
    size_t avail = file_->size() - pos_;
    size_t take = n < avail ? n : avail;
    if (take != 0)
        std::memcpy(data, file_->data() + pos_, take);
    pos_ += take;
    return take;
}

void
MmapSource::skip(uint64_t n)
{
    if (n > file_->size() - pos_)
        raise("byte source truncated");
    pos_ += static_cast<size_t>(n);
}

const uint8_t *
MmapSource::view(size_t n)
{
    const uint8_t *p = file_->view(pos_, n);
    if (p == nullptr)
        return nullptr;
    pos_ += n;
    mmapMetrics().view_bytes.add(static_cast<int64_t>(n));
    return p;
}

std::unique_ptr<ByteSource>
openFileSource(const std::string &path)
{
    if (auto mapped = MappedFile::map(path))
        return std::make_unique<MmapSource>(std::move(mapped));
    mmapMetrics().fallbacks.inc();
    return std::make_unique<FileSource>(path);
}

} // namespace atc::util

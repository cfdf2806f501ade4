#include "util/bytestream.hpp"

#include <cerrno>
#include <limits>

#include "obs/metrics.hpp"

namespace atc::util {

namespace {

// File I/O accounting. Bytes and calls are always counted (one
// relaxed add); wall time only for transfers of at least 4 KiB — the
// varint reader issues millions of 1-byte reads and two clock queries
// per byte would dwarf the read itself.
constexpr size_t kIoTimeThreshold = 4096;

struct IoMetrics {
    obs::Counter &read_bytes;
    obs::Counter &read_calls;
    obs::Counter &read_us;
    obs::Counter &write_bytes;
    obs::Counter &write_calls;
    obs::Counter &write_us;
};

IoMetrics &
ioMetrics()
{
    auto &r = obs::Registry::global();
    static IoMetrics m{
        r.counter("io.read_bytes"),  r.counter("io.read_calls"),
        r.counter("io.read_us"),     r.counter("io.write_bytes"),
        r.counter("io.write_calls"), r.counter("io.write_us"),
    };
    return m;
}

/**
 * EINTR-safe fread: a signal delivered mid-read (a daemon handling
 * SIGTERM, a debugger attach) makes stdio return short with the error
 * flag set and errno == EINTR. Clear the flag and resume where the
 * partial transfer stopped; only genuine errors and end-of-file end
 * the loop.
 */
size_t
freadRetry(uint8_t *data, size_t n, std::FILE *fp)
{
    size_t done = 0;
    while (done < n) {
        size_t got = std::fread(data + done, 1, n - done, fp);
        done += got;
        if (done == n || std::feof(fp))
            break;
        if (std::ferror(fp)) {
            if (errno != EINTR)
                break;
            std::clearerr(fp);
        }
    }
    return done;
}

/** EINTR-safe fwrite; mirrors freadRetry. */
size_t
fwriteRetry(const uint8_t *data, size_t n, std::FILE *fp)
{
    size_t done = 0;
    while (done < n) {
        size_t put = std::fwrite(data + done, 1, n - done, fp);
        done += put;
        if (done == n)
            break;
        if (std::ferror(fp)) {
            if (errno != EINTR)
                break;
            std::clearerr(fp);
        }
    }
    return done;
}

/**
 * 64-bit-clean stdio positioning. fseek/ftell traffic in `long`, which
 * is 32 bits on Windows and 32-bit Unix — a skip or size probe beyond
 * 2 GiB silently truncated the offset. Route through the platform's
 * 64-bit variants, and step SEEK_CUR advances in bounded increments so
 * even a 32-bit off_t build cannot overflow a single relative seek.
 */
int64_t
tell64(std::FILE *fp)
{
#if defined(_WIN32)
    return _ftelli64(fp);
#else
    return static_cast<int64_t>(ftello(fp));
#endif
}

int
seekSet64(std::FILE *fp, int64_t pos)
{
#if defined(_WIN32)
    return _fseeki64(fp, pos, SEEK_SET);
#else
    return fseeko(fp, static_cast<off_t>(pos), SEEK_SET);
#endif
}

int
seekCur64(std::FILE *fp, uint64_t n)
{
#if defined(_WIN32)
    constexpr uint64_t kStep = std::numeric_limits<int64_t>::max();
#else
    constexpr uint64_t kStep =
        sizeof(off_t) >= 8
            ? static_cast<uint64_t>(std::numeric_limits<int64_t>::max())
            : static_cast<uint64_t>(std::numeric_limits<int32_t>::max());
#endif
    while (n > 0) {
        uint64_t step = n < kStep ? n : kStep;
#if defined(_WIN32)
        if (_fseeki64(fp, static_cast<int64_t>(step), SEEK_CUR) != 0)
            return -1;
#else
        if (fseeko(fp, static_cast<off_t>(step), SEEK_CUR) != 0)
            return -1;
#endif
        n -= step;
    }
    return 0;
}

} // namespace

void
ByteSource::skip(uint64_t n)
{
    uint8_t scratch[16 * 1024];
    while (n > 0) {
        size_t want = n < sizeof(scratch)
                          ? static_cast<size_t>(n)
                          : sizeof(scratch);
        size_t got = read(scratch, want);
        if (got == 0)
            raise("byte source truncated");
        n -= got;
    }
}

FileSink::FileSink(const std::string &path)
{
    fp_ = std::fopen(path.c_str(), "wb");
    if (!fp_)
        raise("cannot open for writing: " + path);
}

FileSink::~FileSink()
{
    if (fp_)
        std::fclose(fp_);
}

void
FileSink::write(const uint8_t *data, size_t n)
{
    ATC_ASSERT(fp_ != nullptr);
    IoMetrics &m = ioMetrics();
    if (n >= kIoTimeThreshold) {
        obs::StageTimer t(m.write_us);
        if (fwriteRetry(data, n, fp_) != n)
            raise("file write failed");
    } else if (n > 0 && fwriteRetry(data, n, fp_) != n) {
        raise("file write failed");
    }
    m.write_bytes.add(static_cast<int64_t>(n));
    m.write_calls.inc();
    written_ += n;
}

void
FileSink::flush()
{
    if (fp_)
        std::fflush(fp_);
}

void
FileSink::close()
{
    if (fp_) {
        std::fclose(fp_);
        fp_ = nullptr;
    }
}

FileSource::FileSource(const std::string &path)
{
    fp_ = std::fopen(path.c_str(), "rb");
    if (!fp_)
        raise("cannot open for reading: " + path);
}

FileSource::~FileSource()
{
    if (fp_)
        std::fclose(fp_);
}

size_t
FileSource::read(uint8_t *data, size_t n)
{
    ATC_ASSERT(fp_ != nullptr);
    IoMetrics &m = ioMetrics();
    size_t got;
    if (n >= kIoTimeThreshold) {
        obs::StageTimer t(m.read_us);
        got = freadRetry(data, n, fp_);
    } else {
        got = freadRetry(data, n, fp_);
    }
    m.read_bytes.add(static_cast<int64_t>(got));
    m.read_calls.inc();
    return got;
}

void
FileSource::skip(uint64_t n)
{
    ATC_ASSERT(fp_ != nullptr);
    if (n == 0)
        return;
    // Seeking happily lands past end-of-file; bound the target against
    // the file size so a skip past the end reports truncation exactly
    // like the read-and-discard default.
    if (size_ < 0) {
        int64_t pos = tell64(fp_);
        if (pos >= 0 && std::fseek(fp_, 0, SEEK_END) == 0) {
            size_ = tell64(fp_);
            if (seekSet64(fp_, pos) != 0)
                raise("file seek failed");
        }
    }
    int64_t pos = tell64(fp_);
    if (size_ < 0 || pos < 0) {
        // Unseekable stream (pipe): fall back to read-and-discard.
        ByteSource::skip(n);
        return;
    }
    if (n > static_cast<uint64_t>(size_ - pos))
        raise("byte source truncated");
    if (seekCur64(fp_, n) != 0)
        raise("file seek failed");
}

std::vector<uint8_t>
readToEnd(ByteSource &src)
{
    std::vector<uint8_t> out;
    uint8_t buf[16 * 1024];
    while (size_t got = src.read(buf, sizeof(buf)))
        out.insert(out.end(), buf, buf + got);
    return out;
}

void
writeVarint(ByteSink &sink, uint64_t value)
{
    while (value >= 0x80) {
        sink.writeByte(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    sink.writeByte(static_cast<uint8_t>(value));
}

uint64_t
readVarint(ByteSource &src)
{
    uint64_t value = 0;
    int shift = 0;
    for (;;) {
        uint8_t b;
        src.readExact(&b, 1);
        if (shift >= 63 && (b & 0x7E))
            raise("varint overflow");
        value |= static_cast<uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return value;
        shift += 7;
    }
}

} // namespace atc::util

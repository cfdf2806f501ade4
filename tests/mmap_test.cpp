/**
 * @file
 * Tests for the zero-copy source layer: MappedFile, MmapSource, the
 * openFileSource fallback policy, and byte parity of mmap-backed
 * container reads against the buffered stdio path in both modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "atc/atc.hpp"
#include "atc/container.hpp"
#include "atc/index.hpp"
#include "obs/metrics.hpp"
#include "util/mmap.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace fs = std::filesystem;
using namespace atc;

namespace {

/** Scoped override of the process-wide io mode. */
struct IoModeGuard
{
    util::IoMode saved;
    explicit IoModeGuard(util::IoMode mode) : saved(util::defaultIoMode())
    {
        util::setDefaultIoMode(mode);
    }
    ~IoModeGuard() { util::setDefaultIoMode(saved); }
};

std::string
writeBytes(const std::string &name, const std::vector<uint8_t> &bytes)
{
    std::string path = testing::TempDir() + "/" + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty())
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    std::fclose(f);
    return path;
}

std::vector<uint64_t>
syntheticTrace(size_t n)
{
    util::Rng rng(7);
    std::vector<uint64_t> trace(n);
    uint64_t base = 0x4000'0000;
    for (auto &v : trace) {
        if (rng.below(16) == 0)
            base = 0x4000'0000 + (rng.below(8) << 24);
        v = base + rng.below(1 << 16);
    }
    return trace;
}

std::vector<uint64_t>
readAll(const std::string &dir, util::IoMode mode)
{
    IoModeGuard guard(mode);
    core::AtcReader reader(dir);
    std::vector<uint64_t> out;
    uint64_t v;
    while (reader.decode(&v))
        out.push_back(v);
    return out;
}

} // namespace

TEST(MappedFile, MapsRegularFileAndBoundsChecksViews)
{
    std::vector<uint8_t> bytes(4096);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i * 31);
    std::string path = writeBytes("atc_mmap_basic.bin", bytes);

    auto file = util::MappedFile::map(path);
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->size(), bytes.size());
    EXPECT_EQ(std::vector<uint8_t>(file->data(),
                                   file->data() + file->size()),
              bytes);

    EXPECT_EQ(file->view(100, 16), file->data() + 100);
    EXPECT_EQ(file->view(bytes.size(), 0), file->data() + bytes.size());
    EXPECT_EQ(file->view(bytes.size(), 1), nullptr);
    EXPECT_EQ(file->view(1, bytes.size()), nullptr);
    fs::remove(path);
}

TEST(MappedFile, RejectsMissingEmptyAndSpecialFiles)
{
    EXPECT_EQ(util::MappedFile::map(testing::TempDir() +
                                    "/atc_mmap_no_such_file"),
              nullptr);
    std::string empty = writeBytes("atc_mmap_empty.bin", {});
    EXPECT_EQ(util::MappedFile::map(empty), nullptr);
    fs::remove(empty);
#if !defined(_WIN32)
    EXPECT_EQ(util::MappedFile::map("/dev/null"), nullptr);
#endif
}

TEST(MmapSource, ViewReadSkipSemantics)
{
    std::vector<uint8_t> bytes(256);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i);
    std::string path = writeBytes("atc_mmap_source.bin", bytes);
    auto file = util::MappedFile::map(path);
    ASSERT_NE(file, nullptr);

    util::MmapSource src(file);
    const uint8_t *span = src.view(16);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span, file->data());
    EXPECT_EQ(span[15], 15);
    // The keepalive token pins the mapping for borrowers that outlive
    // the source.
    EXPECT_EQ(src.viewKeepalive().get(), file.get());

    uint8_t buf[8];
    EXPECT_EQ(src.read(buf, 8), 8u);
    EXPECT_EQ(buf[0], 16);
    src.skip(200);
    EXPECT_EQ(src.remaining(), 256u - 16 - 8 - 200);
    // A view larger than what remains must refuse, not truncate.
    EXPECT_EQ(src.view(64), nullptr);
    EXPECT_THROW(src.skip(64), util::Error);
    fs::remove(path);
}

TEST(OpenFileSource, StdioModeAndUnmappableInputsFallBack)
{
    std::vector<uint8_t> bytes{1, 2, 3, 4, 5};
    std::string path = writeBytes("atc_mmap_fallback.bin", bytes);

    // kStdio forces the buffered path: no borrowed views available.
    auto stdio_src = util::openFileSource(path, util::IoMode::kStdio);
    EXPECT_EQ(stdio_src->view(2), nullptr);
    uint8_t buf[5] = {};
    stdio_src->readExact(buf, 5);
    EXPECT_EQ(buf[4], 5);

    // kMmap on a regular file serves views.
    auto mmap_src = util::openFileSource(path, util::IoMode::kMmap);
    EXPECT_NE(mmap_src->view(5), nullptr);
    fs::remove(path);

#if !defined(_WIN32)
    // An unmappable special file falls back to stdio cleanly instead
    // of failing: reads work, views are refused.
    auto dev = util::openFileSource("/dev/null", util::IoMode::kMmap);
    EXPECT_EQ(dev->view(1), nullptr);
    EXPECT_EQ(dev->read(buf, 1), 0u);
#endif

    // A missing file is an error in both modes, not a silent fallback.
    std::string missing = testing::TempDir() + "/atc_mmap_missing.bin";
    EXPECT_THROW(util::openFileSource(missing, util::IoMode::kMmap),
                 util::Error);
    EXPECT_THROW(util::openFileSource(missing, util::IoMode::kStdio),
                 util::Error);
}

#if !defined(_WIN32)
TEST(MappedFile, SparseFileBeyondTwoGiB)
{
    // 64-bit offset probe: map a sparse >=2 GiB file (no disk blocks
    // behind the hole) and read a marker placed past the 2^31 line.
    if (sizeof(size_t) < 8)
        GTEST_SKIP() << "needs a 64-bit size_t";
    const uint64_t kOffset = (1ull << 31) + 4096;
    const uint8_t kMarker[8] = {0xA5, 1, 2, 3, 4, 5, 6, 0x5A};
    std::string path = testing::TempDir() + "/atc_mmap_sparse.bin";
    int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, kMarker, sizeof kMarker,
                       static_cast<off_t>(kOffset)),
              static_cast<ssize_t>(sizeof kMarker));
    ::close(fd);

    auto file = util::MappedFile::map(path);
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->size(), kOffset + sizeof kMarker);
    const uint8_t *span = file->view(kOffset, sizeof kMarker);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(std::memcmp(span, kMarker, sizeof kMarker), 0);
    // The hole reads as zeros.
    EXPECT_EQ(file->view(kOffset - 8, 8)[0], 0);

    // MmapSource::skip is O(1), so seeking past 2 GiB is instant.
    util::MmapSource src(file);
    src.skip(kOffset);
    uint8_t buf[8] = {};
    EXPECT_EQ(src.read(buf, 8), 8u);
    EXPECT_EQ(std::memcmp(buf, kMarker, 8), 0);
    fs::remove(path);
}
#endif

TEST(MmapParity, ContainersDecodeIdenticallyInBothModes)
{
    auto trace = syntheticTrace(30000);
    for (bool lossy : {false, true}) {
        std::string dir = testing::TempDir() + "/atc_mmap_parity" +
                          (lossy ? "_lossy" : "_lossless");
        fs::remove_all(dir);
        core::AtcOptions opt;
        opt.mode = lossy ? core::Mode::Lossy : core::Mode::Lossless;
        opt.lossy.interval_len = 5000;
        opt.pipeline.buffer_addrs = 4096;
        {
            core::AtcWriter writer(dir, opt);
            writer.write(trace.data(), trace.size());
            writer.close();
        }

        auto mmap_out = readAll(dir, util::IoMode::kMmap);
        auto stdio_out = readAll(dir, util::IoMode::kStdio);
        EXPECT_EQ(mmap_out, stdio_out) << (lossy ? "lossy" : "lossless");
        EXPECT_EQ(mmap_out.size(), trace.size());
        if (!lossy)
            EXPECT_EQ(mmap_out, trace);
        fs::remove_all(dir);
    }
}

TEST(MmapParity, RandomAccessCursorMatchesStdio)
{
    auto trace = syntheticTrace(40000);
    std::string dir = testing::TempDir() + "/atc_mmap_cursor_parity";
    fs::remove_all(dir);
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.buffer_addrs = 4096;
    opt.pipeline.codec_block = 16 * 1024;
    {
        core::AtcWriter writer(dir, opt);
        writer.write(trace.data(), trace.size());
        writer.close();
    }

    for (util::IoMode mode :
         {util::IoMode::kMmap, util::IoMode::kStdio}) {
        IoModeGuard guard(mode);
        auto index = core::AtcIndex::openOrThrow(
            std::make_unique<core::DirectoryStore>(dir, "bwc", mode));
        auto cursor = index->cursor();
        std::vector<uint64_t> slice;
        ASSERT_TRUE(cursor->readRange(17000, 19000, slice).ok());
        EXPECT_EQ(slice,
                  std::vector<uint64_t>(trace.begin() + 17000,
                                        trace.begin() + 19000));
    }
    fs::remove_all(dir);
}

TEST(MmapParity, ViewBytesCounterRecordsZeroCopyDecodes)
{
    if (!obs::enabled())
        GTEST_SKIP() << "observability disabled";
    auto trace = syntheticTrace(20000);
    std::string dir = testing::TempDir() + "/atc_mmap_counters";
    fs::remove_all(dir);
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.buffer_addrs = 4096;
    {
        core::AtcWriter writer(dir, opt);
        writer.write(trace.data(), trace.size());
        writer.close();
    }

    auto before = obs::Registry::global().snapshot();
    auto out = readAll(dir, util::IoMode::kMmap);
    auto after = obs::Registry::global().snapshot();
    EXPECT_EQ(out.size(), trace.size());
    EXPECT_GT(after.value("io.mmap_opens"), before.value("io.mmap_opens"));
    EXPECT_GT(after.value("io.view_bytes"), before.value("io.view_bytes"));
    fs::remove_all(dir);
}

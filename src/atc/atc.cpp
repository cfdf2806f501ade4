#include "atc/atc.hpp"

#include "atc/info.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace atc::core {

AtcWriter::AtcWriter(ChunkStore &store, const AtcOptions &options)
    : store_(&store), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec))
{
    init();
}

AtcWriter::AtcWriter(const std::string &dir, const AtcOptions &options)
    : owned_store_(std::make_unique<DirectoryStore>(
          dir, containerSuffix(options.pipeline.codec))),
      store_(owned_store_.get()), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec))
{
    init();
}

void
AtcWriter::init()
{
    // writeContainerInfo's limit, enforced up front so a bad spec fails
    // at construction rather than after everything has been compressed.
    ATC_CHECK(codec_.spec.size() < 256,
              "codec spec too long for INFO preamble");
    options_.lossy.chunk_params = options_.pipeline;
    if (options_.mode == Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        lossless_ = std::make_unique<LosslessWriter>(options_.pipeline,
                                                     *chunk_sink_);
    } else {
        lossy_ = std::make_unique<LossyEncoder>(options_.lossy, *store_);
    }
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(ChunkStore &store, const AtcOptions &options)
{
    return util::toStatus(
        [&] { return std::make_unique<AtcWriter>(store, options); });
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(const std::string &dir, const AtcOptions &options)
{
    return util::toStatus(
        [&] { return std::make_unique<AtcWriter>(dir, options); });
}

AtcWriter::~AtcWriter() = default;

void
AtcWriter::write(const uint64_t *vals, size_t n)
{
    ATC_ASSERT(!closed_);
    if (lossless_)
        lossless_->write(vals, n);
    else
        lossy_->write(vals, n);
    count_ += n;
}

const LossyStats &
AtcWriter::lossyStats() const
{
    ATC_CHECK(lossy_ != nullptr, "lossyStats requires lossy mode");
    return lossy_->stats();
}

void
AtcWriter::close()
{
    if (closed_)
        return;
    if (lossless_) {
        lossless_->finish();
        chunk_sink_->flush();
        writeContainerInfo(*store_, codec_, options_.mode,
                           options_.pipeline, count_, nullptr, 0,
                           nullptr);
    } else {
        lossy_->finish();
        writeContainerInfo(*store_, codec_, options_.mode,
                           options_.pipeline, count_, &options_.lossy,
                           lossy_->stats().chunks_created,
                           &lossy_->records());
    }
    closed_ = true;
}

util::Status
AtcWriter::tryClose()
{
    return util::toStatus([&] { close(); });
}

namespace {

IndexOptions
indexOptions(size_t cache_bytes)
{
    IndexOptions iopt;
    iopt.cache_bytes = cache_bytes;
    return iopt;
}

/**
 * A task queue with room for one full pass's readahead: up to
 * 2 * threads + 2 frame decodes (lossy: 2 * threads + 1 chunks) and
 * max(1, (threads + 1) / 4) + 1 inverse transforms. A pass then never
 * blocks on a full queue; its reading thread waits only in
 * ThreadPool::wait(), where it runs queued tasks.
 */
std::shared_ptr<parallel::ThreadPool>
readerPool(size_t threads)
{
    if (threads == 0)
        return nullptr;
    return std::make_shared<parallel::ThreadPool>(threads, 4 * threads + 4);
}

} // namespace

AtcReader::AtcReader(std::shared_ptr<const AtcIndex> index,
                     size_t threads)
    : pool_(readerPool(threads)), index_(std::move(index)), cursor_(cursor())
{
}

AtcReader::AtcReader(ChunkStore &store, size_t cache_bytes,
                     size_t threads)
    : AtcReader(AtcIndex::openOrThrow(store, indexOptions(cache_bytes)),
                threads)
{
}

AtcReader::AtcReader(const std::string &dir, size_t cache_bytes,
                     size_t threads)
    : AtcReader(dir, detectContainerSuffix(dir), cache_bytes, threads)
{
}

AtcReader::AtcReader(const std::string &dir, const std::string &suffix,
                     size_t cache_bytes, size_t threads)
    : AtcReader(AtcIndex::openOrThrow(
                    std::make_unique<DirectoryStore>(dir, suffix),
                    indexOptions(cache_bytes)),
                threads)
{
}

util::StatusOr<std::unique_ptr<AtcReader>>
AtcReader::open(ChunkStore &store, size_t cache_bytes, size_t threads)
{
    return util::toStatus([&] {
        return std::make_unique<AtcReader>(store, cache_bytes, threads);
    });
}

util::StatusOr<std::unique_ptr<AtcReader>>
AtcReader::open(const std::string &dir, size_t cache_bytes,
                size_t threads)
{
    return util::toStatus([&] {
        return std::make_unique<AtcReader>(dir, cache_bytes, threads);
    });
}

AtcReader::~AtcReader() = default;

std::unique_ptr<AtcCursor>
AtcReader::cursor() const
{
    return std::make_unique<AtcCursor>(index_, pool_);
}

size_t
AtcReader::read(uint64_t *out, size_t n)
{
    // Sequential decode is a cursor that starts at record 0 and never
    // seeks; the cursor also enforces the truncation check (a clean
    // end before the INFO-recorded count fails loudly).
    return cursor_->read(out, n);
}

util::StatusOr<size_t>
AtcReader::tryRead(uint64_t *out, size_t n)
{
    return util::toStatus([&] { return read(out, n); });
}

} // namespace atc::core

#include "atc/atc.hpp"

#include "atc/info.hpp"
#include "compress/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

/**
 * The pool of an AtcWriter or AtcReader with @p threads workers (none
 * for 0). Its queue has room for every window either keeps, so a
 * submit never blocks: a reader's full pass queues up to
 * 2 * threads + 2 frame decodes (lossy: 2 * threads + 1 chunks) and
 * ceil((threads + 1) / 3) + 1 inverse transforms, a lossless writer
 * comp::kFramesPerWorker * threads + 1 codec frames and 2
 * forward-transform batches, a lossy writer 2 * threads signatures and
 * 2 * threads chunks. A reading or
 * writing thread then waits only in parallel::Task::get(), where it
 * runs queued tasks.
 */
std::shared_ptr<parallel::ThreadPool>
makePool(size_t threads)
{
    if (threads == 0)
        return nullptr;
    return std::make_shared<parallel::ThreadPool>(
        threads, (comp::kFramesPerWorker + 2) * threads + 4);
}

IndexOptions
indexOptions(size_t cache_bytes)
{
    IndexOptions iopt;
    iopt.cache_bytes = cache_bytes;
    return iopt;
}

} // namespace

AtcWriter::AtcWriter(ChunkStore &store, const AtcOptions &options,
                     size_t threads)
    : store_(&store), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec)),
      pool_(makePool(threads))
{
    init();
}

AtcWriter::AtcWriter(const std::string &dir, const AtcOptions &options,
                     size_t threads)
    : owned_store_(std::make_unique<DirectoryStore>(
          dir, containerSuffix(options.pipeline.codec))),
      store_(owned_store_.get()), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec)),
      pool_(makePool(threads))
{
    init();
}

void
AtcWriter::init()
{
    // writeContainerInfo's limit and the codec's block cap, enforced up
    // front so a bad spec fails at construction rather than after
    // everything has been compressed.
    ATC_CHECK(codec_.spec.size() < 256,
              "codec spec too long for INFO preamble");
    util::Status fits = comp::checkBlockSize(
        *codec_.codec, codec_.blockOr(options_.pipeline.codec_block));
    if (!fits.ok())
        util::raise(fits.message());
    if (options_.mode == Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        lossless_ = std::make_unique<LosslessWriter>(
            options_.pipeline, *chunk_sink_, pool_.get());
    } else {
        lossy_ = std::make_unique<LossyEncoder>(
            options_.lossy, options_.pipeline, *store_, pool_.get());
    }
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(ChunkStore &store, const AtcOptions &options,
                size_t threads)
{
    return util::toStatus([&] {
        return std::make_unique<AtcWriter>(store, options, threads);
    });
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(const std::string &dir, const AtcOptions &options,
                size_t threads)
{
    return util::toStatus([&] {
        return std::make_unique<AtcWriter>(dir, options, threads);
    });
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
    if (close_error_)
        std::rethrow_exception(close_error_);
    if (closed_)
        return;
    closed_ = true;
    try {
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
    } catch (...) {
        // The sequence may have written part of its bytes; running it
        // again would append them twice, so the failure is final.
        close_error_ = std::current_exception();
        throw;
    }
}

util::Status
AtcWriter::tryClose()
{
    return util::toStatus([&] { close(); });
}

AtcReader::AtcReader(std::shared_ptr<const AtcIndex> index,
                     size_t threads)
    : pool_(makePool(threads)), index_(std::move(index)), cursor_(cursor())
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

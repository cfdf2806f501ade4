#include "parallel/parallel_atc.hpp"

#include <utility>

#include "atc/info.hpp"
#include "obs/metrics.hpp"

namespace atc::parallel {

/** ByteSink adapter routing transform output into the block slicer. */
class LosslessBlockSink : public util::ByteSink
{
  public:
    explicit LosslessBlockSink(ParallelAtcWriter &writer)
        : writer_(writer)
    {}

    void
    write(const uint8_t *data, size_t n) override
    {
        writer_.onTransformedBytes(data, n);
    }

  private:
    ParallelAtcWriter &writer_;
};

ParallelAtcWriter::ParallelAtcWriter(core::ChunkStore &store,
                                     const core::AtcOptions &options,
                                     const ParallelOptions &popt)
    : store_(&store), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec)),
      lookahead_(2 * resolveThreads(popt.threads)),
      pool_(popt.threads, lookahead_)
{
    init();
}

ParallelAtcWriter::ParallelAtcWriter(const std::string &dir,
                                     const core::AtcOptions &options,
                                     const ParallelOptions &popt)
    : owned_store_(std::make_unique<core::DirectoryStore>(
          dir, core::containerSuffix(options.pipeline.codec))),
      store_(owned_store_.get()), options_(options),
      codec_(comp::makeCodec(options.pipeline.codec)),
      lookahead_(2 * resolveThreads(popt.threads)),
      pool_(popt.threads, lookahead_)
{
    init();
}

void
ParallelAtcWriter::init()
{
    ATC_CHECK(codec_.spec.size() < 256,
              "codec spec too long for INFO preamble");
    options_.lossy.chunk_params = options_.pipeline;
    if (options_.mode == core::Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        block_size_ = codec_.blockOr(options_.pipeline.codec_block);
        block_buf_.reserve(block_size_);
        block_sink_ = std::make_unique<LosslessBlockSink>(*this);
        transform_ = std::make_unique<core::TransformEncoder>(
            options_.pipeline.transform, options_.pipeline.buffer_addrs,
            *block_sink_);
    } else {
        lossy_ = std::make_unique<core::LossyEncoder>(
            options_.lossy, *store_,
            [this](uint32_t id, std::vector<uint64_t> payload) {
                dispatchChunk(id, std::move(payload));
            });
    }
}

util::StatusOr<std::unique_ptr<ParallelAtcWriter>>
ParallelAtcWriter::open(core::ChunkStore &store,
                        const core::AtcOptions &options,
                        const ParallelOptions &popt)
{
    return util::toStatus([&] {
        return std::make_unique<ParallelAtcWriter>(store, options, popt);
    });
}

util::StatusOr<std::unique_ptr<ParallelAtcWriter>>
ParallelAtcWriter::open(const std::string &dir,
                        const core::AtcOptions &options,
                        const ParallelOptions &popt)
{
    return util::toStatus([&] {
        return std::make_unique<ParallelAtcWriter>(dir, options, popt);
    });
}

ParallelAtcWriter::~ParallelAtcWriter()
{
    // Abandoned without close(): drop the pending futures and let the
    // pool run out its queue. Workers never wait on the caller, so the
    // join in ~ThreadPool cannot deadlock.
}

void
ParallelAtcWriter::write(const uint64_t *vals, size_t n)
{
    ATC_ASSERT(!closed_);
    if (transform_)
        transform_->write(vals, n);
    else
        writeLossy(vals, n);
    count_ += n;
}

void
ParallelAtcWriter::writeLossy(const uint64_t *vals, size_t n)
{
    size_t interval = static_cast<size_t>(options_.lossy.interval_len);
    while (n > 0) {
        size_t room = interval - interval_buf_.size();
        size_t take = n < room ? n : room;
        interval_buf_.insert(interval_buf_.end(), vals, vals + take);
        vals += take;
        n -= take;
        if (interval_buf_.size() == interval)
            dispatchInterval();
    }
}

void
ParallelAtcWriter::dispatchInterval()
{
    auto payload = std::make_shared<std::vector<uint64_t>>(
        std::move(interval_buf_));
    interval_buf_ = std::vector<uint64_t>();
    interval_buf_.reserve(
        static_cast<size_t>(options_.lossy.interval_len));

    PendingInterval pending;
    pending.payload = payload;
    pending.sig = pool_.async([payload]() {
        return core::LossyEncoder::signatureOf(payload->data(),
                                               payload->size());
    });
    pending_sigs_.push_back(std::move(pending));
    drainSignatures(lookahead_);
}

void
ParallelAtcWriter::drainSignatures(size_t keep)
{
    while (pending_sigs_.size() > keep) {
        PendingInterval &front = pending_sigs_.front();
        core::IntervalSignature sig = front.sig.get();
        // The pooled task is resolved, so this thread owns the payload
        // again; writeInterval runs the serial decision stage and may
        // emit a chunk through dispatchChunk.
        lossy_->writeInterval(std::move(*front.payload), sig);
        pending_sigs_.pop_front();
    }
}

void
ParallelAtcWriter::onTransformedBytes(const uint8_t *data, size_t n)
{
    raw_crc_.update(data, n);
    while (n > 0) {
        size_t room = block_size_ - block_buf_.size();
        size_t take = n < room ? n : room;
        block_buf_.insert(block_buf_.end(), data, data + take);
        data += take;
        n -= take;
        if (block_buf_.size() == block_size_)
            dispatchBlock();
    }
}

void
ParallelAtcWriter::dispatchBlock()
{
    std::vector<uint8_t> raw = std::move(block_buf_);
    block_buf_ = std::vector<uint8_t>();
    block_buf_.reserve(block_size_);

    // The shared_ptr keeps the codec alive for the task even if the
    // writer is torn down before the pool drains. Frames go through
    // comp::encodeFrame — the same serialization the serial
    // StreamCompressor uses — so containers stay byte-identical.
    std::shared_ptr<const comp::Codec> codec = codec_.codec;
    pending_blocks_.push_back(
        pool_.async([codec, raw = std::move(raw)]() {
            comp::FrameIndexEntry entry;
            std::vector<uint8_t> frame =
                comp::encodeFrame(*codec, raw.data(), raw.size(),
                                  comp::FrameFormat::Seekable, &entry);
            return EncodedFrame{std::move(frame), entry};
        }));
    drainBlocks(lookahead_);
}

void
ParallelAtcWriter::drainBlocks(size_t keep)
{
    while (pending_blocks_.size() > keep) {
        EncodedFrame frame = pending_blocks_.front().get();
        pending_blocks_.pop_front();
        chunk_sink_->write(frame.first.data(), frame.first.size());
        frame_index_.push_back(frame.second);
    }
}

void
ParallelAtcWriter::dispatchChunk(uint32_t id,
                                 std::vector<uint64_t> payload)
{
    pending_chunks_.emplace_back(
        id, pool_.async([params = options_.lossy.chunk_params,
                         payload = std::move(payload)]() {
            // Same stage counter the serial emitChunk path uses, so
            // lossy.chunk_compress_us is pool-vs-caller comparable
            // against lossy.signature_us/decision_us.
            static obs::Counter &chunk_us =
                obs::Registry::global().counter(
                    "lossy.chunk_compress_us");
            obs::StageTimer t(chunk_us);
            std::vector<uint8_t> bytes;
            util::VectorSink sink(bytes);
            core::LosslessWriter writer(params, sink);
            writer.write(payload.data(), payload.size());
            writer.finish();
            return bytes;
        }));
    drainChunks(lookahead_);
}

void
ParallelAtcWriter::drainChunks(size_t keep)
{
    // Chunk ids are dense and dispatched in increasing order, so
    // resolving the deque front-first reassembles the container in
    // exactly the serial path's order.
    while (pending_chunks_.size() > keep) {
        auto &[id, future] = pending_chunks_.front();
        std::vector<uint8_t> bytes = future.get();
        auto sink = store_->createChunk(id);
        sink->write(bytes.data(), bytes.size());
        sink->flush();
        pending_chunks_.pop_front();
    }
}

void
ParallelAtcWriter::close()
{
    if (closed_)
        return;
    if (transform_) {
        transform_->finish();
        if (!block_buf_.empty())
            dispatchBlock();
        drainBlocks(0);
        // Stream terminator, frame index and CRC trailer, exactly as
        // the serial LosslessWriter emits them.
        comp::writeStreamEnd(*chunk_sink_, comp::FrameFormat::Seekable,
                             frame_index_);
        util::writeLE<uint32_t>(*chunk_sink_, raw_crc_.value());
        chunk_sink_->flush();
        core::writeContainerInfo(*store_, codec_, options_.mode,
                                 options_.pipeline, count_, nullptr, 0,
                                 nullptr);
    } else {
        // The trailing partial interval (if any) goes through the same
        // pooled-signature path; draining in order first keeps the
        // record sequence identical to the serial encoder's.
        if (!interval_buf_.empty())
            dispatchInterval();
        drainSignatures(0);
        lossy_->finish();
        drainChunks(0);
        core::writeContainerInfo(*store_, codec_, options_.mode,
                                 options_.pipeline, count_,
                                 &options_.lossy,
                                 lossy_->stats().chunks_created,
                                 &lossy_->records());
    }
    closed_ = true;
}

util::Status
ParallelAtcWriter::tryClose()
{
    return util::toStatus([&] { close(); });
}

const core::LossyStats &
ParallelAtcWriter::lossyStats() const
{
    ATC_CHECK(lossy_ != nullptr, "lossyStats requires lossy mode");
    return lossy_->stats();
}

ParallelAtcReader::ParallelAtcReader(core::ChunkStore &store,
                                     const ParallelOptions &popt)
    : core::AtcReader(store, popt.cache_bytes,
                      resolveThreads(popt.threads))
{
}

ParallelAtcReader::ParallelAtcReader(const std::string &dir,
                                     const ParallelOptions &popt)
    : core::AtcReader(dir, popt.cache_bytes, resolveThreads(popt.threads))
{
}

util::StatusOr<std::unique_ptr<ParallelAtcReader>>
ParallelAtcReader::open(core::ChunkStore &store,
                        const ParallelOptions &popt)
{
    return util::toStatus(
        [&] { return std::make_unique<ParallelAtcReader>(store, popt); });
}

util::StatusOr<std::unique_ptr<ParallelAtcReader>>
ParallelAtcReader::open(const std::string &dir,
                        const ParallelOptions &popt)
{
    return util::toStatus(
        [&] { return std::make_unique<ParallelAtcReader>(dir, popt); });
}

} // namespace atc::parallel

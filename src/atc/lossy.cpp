#include "atc/lossy.hpp"

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

// Signatures and chunk compression run wherever the encoder's tasks
// run (pool workers or the caller); the decision stage always runs on
// the caller. These counters make each stage's share measurable.
struct LossyMetrics {
    obs::Counter &signature_us;
    obs::Counter &decision_us;
    obs::Counter &chunk_compress_us;
    obs::Counter &chunks;
    obs::Counter &imitations;
};

LossyMetrics &
lossyMetrics()
{
    auto &r = obs::Registry::global();
    static LossyMetrics m{
        r.counter("lossy.signature_us"),
        r.counter("lossy.decision_us"),
        r.counter("lossy.chunk_compress_us"),
        r.counter("lossy.chunks"),
        r.counter("lossy.imitations"),
    };
    return m;
}

}  // namespace

LossyEncoder::LossyEncoder(const LossyParams &params,
                           const LosslessParams &pipeline, ChunkStore &store,
                           parallel::ThreadPool *pool)
    : params_(params), pipeline_(pipeline), store_(store), pool_(pool)
{
    ATC_CHECK(params_.interval_len > 0, "interval length must be positive");
    ATC_CHECK(params_.chunk_table > 0, "chunk table must be nonempty");
    buffer_.reserve(params_.interval_len);
}

void
LossyEncoder::write(const uint64_t *addrs, size_t n)
{
    ATC_ASSERT(!finished_);
    stats_.addresses += n;
    while (n > 0) {
        size_t room =
            static_cast<size_t>(params_.interval_len) - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), addrs, addrs + take);
        addrs += take;
        n -= take;
        if (buffer_.size() == params_.interval_len)
            launchInterval();
    }
}

IntervalSignature
LossyEncoder::signatureOf(const uint64_t *addrs, size_t n)
{
    obs::StageTimer sig_t(lossyMetrics().signature_us);
    return IntervalSignature::from(computeHistograms(addrs, n));
}

void
LossyEncoder::launchInterval()
{
    std::vector<uint64_t> addrs = std::move(buffer_);
    buffer_ = std::vector<uint64_t>();
    buffer_.reserve(params_.interval_len);
    intervals_.emplace_back(pool_, [addrs = std::move(addrs)]() mutable {
        IntervalSignature sig = signatureOf(addrs.data(), addrs.size());
        return Interval{std::move(addrs), std::move(sig)};
    });
    drainIntervals(parallel::windowDepth(pool_));
}

void
LossyEncoder::drainIntervals(size_t keep)
{
    while (intervals_.size() > keep) {
        Interval interval = std::move(intervals_.front().get());
        intervals_.pop_front();
        decide(std::move(interval));
    }
}

void
LossyEncoder::decide(Interval interval)
{
    LossyMetrics &m = lossyMetrics();

    // Only full intervals may imitate: a shorter final interval has a
    // different temporal extent and is always stored exactly.
    bool full = interval.addrs.size() == params_.interval_len;

    obs::StageTimer dec_t(m.decision_us);
    const TableEntry *best = nullptr;
    double best_d = 0.0;
    if (full) {
        for (const TableEntry &entry : table_) {
            double d = signatureDistance(entry.sig, interval.sig);
            if (!best || d < best_d) {
                best = &entry;
                best_d = d;
            }
        }
    }

    ++stats_.intervals;
    if (best && best_d < params_.epsilon) {
        IntervalRecord rec;
        rec.kind = IntervalRecord::Kind::Imitate;
        rec.chunk_id = best->chunk_id;
        rec.length = interval.addrs.size();
        if (params_.translate)
            rec.trans =
                makeTranslation(best->sig, interval.sig, params_.epsilon);
        dec_t.stop();
        records_.push_back(std::move(rec));
        ++stats_.imitated;
        m.imitations.inc();
    } else {
        dec_t.stop();
        emitChunk(std::move(interval));
    }
}

void
LossyEncoder::emitChunk(Interval interval)
{
    uint32_t id = static_cast<uint32_t>(stats_.chunks_created++);
    uint64_t length = interval.addrs.size();
    records_.push_back(
        {IntervalRecord::Kind::Chunk, id, length, ByteTranslation{}});
    lossyMetrics().chunks.inc();

    // Register the chunk's signature; evict the oldest when full. A
    // partial final chunk is not a candidate for imitation, so it is
    // not registered.
    if (length == params_.interval_len) {
        if (table_.size() == params_.chunk_table)
            table_.pop_front();
        table_.push_back({id, std::move(interval.sig)});
    }

    // The task compresses inline on whichever thread runs it (no
    // nested pool), into bytes the caller writes to the store in id
    // order.
    chunks_.emplace_back(pool_, [params = pipeline_,
                                 addrs = std::move(interval.addrs)] {
        obs::StageTimer t(lossyMetrics().chunk_compress_us);
        std::vector<uint8_t> bytes;
        util::VectorSink sink(bytes);
        LosslessWriter writer(params, sink);
        writer.write(addrs.data(), addrs.size());
        writer.finish();
        return bytes;
    });
    drainChunks(parallel::windowDepth(pool_));
}

void
LossyEncoder::drainChunks(size_t keep)
{
    while (chunks_.size() > keep) {
        auto id = static_cast<uint32_t>(stats_.chunks_created -
                                        chunks_.size());
        std::vector<uint8_t> bytes = std::move(chunks_.front().get());
        chunks_.pop_front();
        auto sink = store_.createChunk(id);
        sink->write(bytes.data(), bytes.size());
        sink->flush();
    }
}

void
LossyEncoder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!buffer_.empty())
        launchInterval();
    drainIntervals(0);
    drainChunks(0);
}

} // namespace atc::core

#include "atc/lossy.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
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
    intervals_.push_back(parallel::launch(
        pool_, [addrs = std::move(addrs)]() mutable {
            IntervalSignature sig = signatureOf(addrs.data(), addrs.size());
            return Interval{std::move(addrs), std::move(sig)};
        }));
    drainIntervals(parallel::windowDepth(pool_));
}

void
LossyEncoder::drainIntervals(size_t keep)
{
    while (intervals_.size() > keep) {
        Interval interval = parallel::await(pool_, intervals_.front());
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
    chunks_.emplace_back(
        id, parallel::launch(pool_, [params = pipeline_,
                                     addrs = std::move(interval.addrs)] {
            obs::StageTimer t(lossyMetrics().chunk_compress_us);
            std::vector<uint8_t> bytes;
            util::VectorSink sink(bytes);
            LosslessWriter writer(params, sink);
            writer.write(addrs.data(), addrs.size());
            writer.finish();
            return bytes;
        }));
    drainChunks(parallel::windowDepth(pool_));
}

void
LossyEncoder::drainChunks(size_t keep)
{
    while (chunks_.size() > keep) {
        uint32_t id = chunks_.front().first;
        std::vector<uint8_t> bytes =
            parallel::await(pool_, chunks_.front().second);
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

LossyDecoder::LossyDecoder(const std::vector<IntervalRecord> *records,
                           ChunkFetch fetch)
    : records_(records), fetch_(std::move(fetch))
{
    ATC_ASSERT(records_ != nullptr && fetch_);
}

void
LossyDecoder::seekRecord(size_t record_idx)
{
    ATC_ASSERT(record_idx <= records_->size());
    record_idx_ = record_idx;
    interval_.clear();
    pos_ = 0;
}

bool
LossyDecoder::nextInterval()
{
    if (record_idx_ >= records_->size())
        return false;
    const IntervalRecord &rec = (*records_)[record_idx_];
    // Asked every interval, so the fetch can keep its readahead moving
    // even through a run of intervals sharing one chunk.
    ChunkPtr held = fetch_(record_idx_);
    ++record_idx_;
    const std::vector<uint64_t> &chunk = *held;
    ATC_CHECK(chunk.size() == rec.length,
              "interval record length mismatch");

    interval_.resize(rec.length);
    if (rec.kind == IntervalRecord::Kind::Chunk ||
        rec.trans.plane_mask == 0) {
        std::copy(chunk.begin(), chunk.end(), interval_.begin());
    } else {
        for (size_t i = 0; i < chunk.size(); ++i)
            interval_[i] = rec.trans.apply(chunk[i]);
    }
    pos_ = 0;
    return true;
}

size_t
LossyDecoder::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (pos_ == interval_.size()) {
            if (!nextInterval())
                break;
            continue; // an empty interval record is possible
        }
        size_t avail = interval_.size() - pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::memcpy(out + got, interval_.data() + pos_,
                    take * sizeof(uint64_t));
        got += take;
        pos_ += take;
    }
    return got;
}

} // namespace atc::core

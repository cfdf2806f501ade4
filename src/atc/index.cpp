#include "atc/index.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <span>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace atc::core {

namespace {

/**
 * Raw (pre-codec) byte size of a lossless stream holding @p count
 * records in transform buffers of @p buffer_addrs: each buffer is
 * varint(n) + 8n bytes, and the stream ends with a 1-byte 0 varint.
 * This is what lets the index cross-check a scanned frame layout
 * against the INFO-recorded count without decoding anything.
 */
uint64_t
expectedRawBytes(uint64_t count, uint64_t buffer_addrs)
{
    uint64_t full = count / buffer_addrs;
    uint64_t rem = count % buffer_addrs;
    uint64_t bytes = full * (util::varintLen(buffer_addrs) +
                             8 * buffer_addrs);
    if (rem != 0)
        bytes += util::varintLen(rem) + 8 * rem;
    return bytes + 1;
}

/** @return @p block, added to @p cache under @p key when @p populate. */
template <typename T>
typename BlockCache<T>::Ptr
keep(BlockCache<T> &cache, bool populate, uint64_t key,
     std::vector<T> block)
{
    return populate ? cache.put(key, std::move(block))
                    : std::make_shared<const std::vector<T>>(
                          std::move(block));
}

/** @return the interval record containing record offset @p rec. */
size_t
recordContaining(const std::vector<uint64_t> &starts, uint64_t rec)
{
    auto it = std::upper_bound(starts.begin(), starts.end(), rec);
    return static_cast<size_t>(it - starts.begin()) - 1;
}

/**
 * Read-and-discard exactly @p n records through @p read (a callable
 * with TraceSource::read's signature), raising @p what if the source
 * dries first.
 */
template <typename ReadFn>
void
discardRecords(ReadFn &&read, uint64_t n, const char *what)
{
    uint64_t scratch[4096];
    while (n > 0) {
        size_t take = n < 4096 ? static_cast<size_t>(n) : 4096;
        size_t got = read(scratch, take);
        ATC_CHECK(got != 0, what);
        n -= got;
    }
}

/** Fill @p out completely through @p read, raising @p what if the
 *  source dries first. */
template <typename ReadFn>
void
fillRecords(ReadFn &&read, std::vector<uint64_t> &out, const char *what)
{
    size_t filled = 0;
    while (filled < out.size()) {
        size_t got = read(out.data() + filled, out.size() - filled);
        ATC_CHECK(got != 0, what);
        filled += got;
    }
}

/** Time spent decoding whole lossy chunks, wherever they decode. */
obs::Counter &
chunkDecodeUs()
{
    static obs::Counter &us =
        obs::Registry::global().counter("lossy.chunk_decode_us");
    return us;
}

/** Frames are many and small (a codec block each) — shard for
 *  concurrency; chunks are few and large (interval_len * 8 bytes) and
 *  touched once per interval switch — a single shard avoids budget
 *  fragmentation entirely. */
constexpr size_t kFrameCacheShards = 8;
constexpr size_t kChunkCacheShards = 1;

} // namespace

AtcIndex::AtcIndex(ChunkStore &store, const IndexOptions &iopt)
    : store_(&store), frame_cache_(iopt.cache_bytes, kFrameCacheShards),
      chunk_cache_(iopt.cache_bytes, kChunkCacheShards)
{
}

AtcIndex::AtcIndex(std::unique_ptr<ChunkStore> owned,
                   const IndexOptions &iopt)
    : owned_store_(std::move(owned)), store_(owned_store_.get()),
      frame_cache_(iopt.cache_bytes, kFrameCacheShards),
      chunk_cache_(iopt.cache_bytes, kChunkCacheShards)
{
}

void
AtcIndex::load()
{
    info_ = readContainerInfo(*store_);
    codec_ = comp::makeCodec(info_.pipeline.codec);

    if (info_.mode == Mode::Lossy) {
        record_starts_.reserve(info_.records.size() + 1);
        record_starts_.push_back(0);
        uint64_t sum = 0;
        for (const IntervalRecord &rec : info_.records) {
            sum += rec.length;
            record_starts_.push_back(sum);
        }
        ATC_CHECK(sum == info_.count,
                  "interval trace length disagrees with the INFO "
                  "record count (corrupt container)");
    }

    uint32_t chunks = chunkCount();
    layouts_.reserve(chunks);
    for (uint32_t id = 0; id < chunks; ++id) {
        auto src = store_->openChunk(id);
        layouts_.push_back(comp::scanSeekableStream(*src));
    }

    // Cross-check the scanned layouts against the INFO-recorded
    // lengths wherever the expected raw size is computable — a cheap,
    // decode-free probe for cross-linked or swapped chunk files.
    if (info_.mode == Mode::Lossless) {
        ATC_CHECK(layouts_[0].rawTotal() ==
                      expectedRawBytes(info_.count,
                                       info_.pipeline.buffer_addrs),
                  "chunk stream size disagrees with the INFO record "
                  "count (truncated or cross-linked container)");
    } else {
        for (const IntervalRecord &rec : info_.records) {
            if (rec.kind != IntervalRecord::Kind::Chunk)
                continue;
            const comp::StreamLayout &layout = layouts_[rec.chunk_id];
            ATC_CHECK(layout.rawTotal() ==
                          expectedRawBytes(rec.length,
                                           info_.pipeline.buffer_addrs),
                      "chunk " + std::to_string(rec.chunk_id) +
                          " size disagrees with its interval record "
                          "(corrupt container)");
        }
    }
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(ChunkStore &store, const IndexOptions &iopt)
{
    return util::toStatus([&] { return openOrThrow(store, iopt); });
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(const std::string &dir, const IndexOptions &iopt)
{
    return util::toStatus([&] {
        return openOrThrow(std::make_unique<DirectoryStore>(
                               dir, detectContainerSuffix(dir)),
                           iopt);
    });
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(const std::string &dir, const std::string &suffix,
               const IndexOptions &iopt)
{
    return util::toStatus([&] {
        return openOrThrow(std::make_unique<DirectoryStore>(dir, suffix),
                           iopt);
    });
}

std::shared_ptr<const AtcIndex>
AtcIndex::openOrThrow(ChunkStore &store, const IndexOptions &iopt)
{
    std::shared_ptr<AtcIndex> index(new AtcIndex(store, iopt));
    index->load();
    return index;
}

std::shared_ptr<const AtcIndex>
AtcIndex::openOrThrow(std::unique_ptr<ChunkStore> store,
                      const IndexOptions &iopt)
{
    std::shared_ptr<AtcIndex> index(new AtcIndex(std::move(store), iopt));
    index->load();
    return index;
}

std::unique_ptr<AtcCursor>
AtcIndex::cursor() const
{
    return std::make_unique<AtcCursor>(shared_from_this(), nullptr);
}

uint32_t
AtcIndex::chunkCount() const
{
    return info_.mode == Mode::Lossless
               ? 1
               : static_cast<uint32_t>(info_.chunk_count);
}

uint64_t
AtcIndex::bufferOf(uint64_t rec) const
{
    return rec / info_.pipeline.buffer_addrs;
}

uint64_t
AtcIndex::bufferLen(uint64_t b) const
{
    uint64_t buffer = info_.pipeline.buffer_addrs;
    uint64_t full = info_.count / buffer;
    return b < full ? buffer : info_.count % buffer;
}

uint64_t
AtcIndex::bufferRawOffset(uint64_t b) const
{
    uint64_t buffer = info_.pipeline.buffer_addrs;
    return b * (util::varintLen(buffer) + 8 * buffer);
}

/**
 * The frame engine every chunk stream is read through: serves the
 * decoded bytes of frames [first, end) of chunk @p chunk, in order,
 * over the layout scanned at open — the lossless container's one
 * chunk, or one lossy chunk. Each frame resolves through the shared
 * cache: a hit skips the payload; a miss has its payload read
 * (zero-copy on mapped chunks) and decoded on @p pool, ahead of the
 * reader (which runs queued pool tasks while it waits for one), or —
 * when @p pool is null — on the caller's thread as the reader reaches
 * it. Every frame is checked against its CRC-32 as it decodes
 * (comp::decodeSeekableFrame), before it is cached or served. A pass
 * from frame 0 (@p full) never adds to the cache; any other pass does.
 * A lossy chunk's frames are decoded once per chunk, whose decoded
 * records the chunk cache keeps, so they skip the frame cache. A
 * decode may read a store the index only borrows, which the caller is
 * free to release once the cursor is gone, so the window's handles
 * wait out their pooled decodes when the source dies.
 */
class AtcCursor::FrameSource : public util::ByteSource
{
  public:
    FrameSource(std::shared_ptr<const AtcIndex> index, uint32_t chunk,
                parallel::ThreadPool *pool, size_t first, size_t end,
                bool full)
        : index_(std::move(index)), chunk_(chunk),
          layout_(index_->chunkLayout(chunk)), pool_(pool),
          ahead_(pool != nullptr ? parallel::windowDepth(pool) + 1 : 0),
          next_(first), end_(end), full_(full)
    {}

    FrameSource(const FrameSource &) = delete;
    FrameSource &operator=(const FrameSource &) = delete;

    size_t
    read(uint8_t *data, size_t n) override
    {
        size_t got = 0;
        while (got < n && available()) {
            size_t take = std::min(n - got, block_->size() - pos_);
            std::memcpy(data + got, block_->data() + pos_, take);
            got += take;
            consume(take);
        }
        return got;
    }

    void
    skip(uint64_t n) override
    {
        while (n > 0) {
            ATC_CHECK(available(), "byte source truncated");
            size_t take = static_cast<size_t>(
                std::min<uint64_t>(n, block_->size() - pos_));
            n -= take;
            consume(take);
        }
    }

    /**
     * Full passes only, once the transform terminator has been read:
     * no raw bytes may follow it.
     */
    void
    verifyEnd()
    {
        if (!full_)
            return;
        uint8_t extra;
        ATC_CHECK(read(&extra, 1) == 0,
                  "trailing data after the transform terminator");
    }

  private:
    /** @return true when the current block has bytes left, moving to
     *  the next frame as needed; false at the end of the range. A
     *  failed frame stays at the front, failing every later call. */
    bool
    available()
    {
        while (!block_) {
            topUp();
            if (window_.empty())
                return false;
            block_ = window_.front().get();
            pos_ = 0;
            if (block_->empty())
                retire();
        }
        return true;
    }

    /** Advance past @p n served bytes of the current frame. */
    void
    consume(size_t n)
    {
        pos_ += n;
        if (pos_ == block_->size())
            retire();
    }

    /** Drop the exhausted front frame; with a pool, queue the next
     *  one at once, so the pool refills while the caller transforms. */
    void
    retire()
    {
        block_.reset();
        window_.pop_front();
        if (ahead_ > 0)
            topUp();
    }

    /** Queue frames until the window is full or the range ends. */
    void
    topUp()
    {
        while (window_.size() < 1 + ahead_ && next_ < end_) {
            size_t f = next_++;
            uint64_t key = BlockCache<uint8_t>::frameKey(chunk_, f);
            try {
                if (!src_) {
                    src_ = index_->store().openChunk(chunk_);
                    src_->skip(layout_.comp_starts[f]);
                }
                // Lossy chunks are cached whole, never by frame.
                BlockCache<uint8_t>::Ptr hit;
                if (index_->mode() == Mode::Lossless)
                    hit = index_->frameCache().get(key);
                if (hit) {
                    src_->skip(layout_.comp_starts[f + 1] -
                               layout_.comp_starts[f]);
                    window_.emplace_back(std::move(hit));
                } else {
                    window_.emplace_back(
                        pool_,
                        [index = index_, key, populate = !full_,
                         frame = layout_.frames[f],
                         payload = comp::fetchIndexedFramePayload(
                             *src_, layout_, f)]() {
                            std::vector<uint8_t> block;
                            comp::decodeSeekableFrame(
                                *index->codec().codec, payload.data, frame,
                                block);
                            return keep(index->frameCache(), populate, key,
                                        std::move(block));
                        });
                }
            } catch (...) {
                // Surface a bad header when its frame is reached, not
                // while frames before it are still being served.
                window_.emplace_back(std::current_exception());
                next_ = end_;
            }
        }
    }

    std::shared_ptr<const AtcIndex> index_;
    uint32_t chunk_;
    const comp::StreamLayout &layout_;
    parallel::ThreadPool *pool_;
    /** Frames queued behind the one being read: the window, plus one.
     *  Transform buffers end mid-frame, so the reader sits on a partly
     *  read frame through every inverse transform; the pool needs the
     *  window's worth queued beyond the next frame to stay busy. */
    size_t ahead_;
    size_t next_; ///< next frame to queue
    size_t end_;
    bool full_;
    /** Chunk source positioned at frame next_; opened on first use,
     *  so a cursor that is built and then seeked reads nothing. */
    std::unique_ptr<util::ByteSource> src_;
    /** Front: the frame being read; then up to ahead_ more. */
    std::deque<parallel::Task<BlockCache<uint8_t>::Ptr>> window_;
    /** The front frame's bytes once resolved; null when exhausted. */
    BlockCache<uint8_t>::Ptr block_;
    size_t pos_ = 0;
};

/**
 * A lossy pass: regenerates interval records [first, end) from their
 * chunks, translating imitated intervals. Its chunk window holds the
 * distinct chunks of the record being read and of the windowDepth(pool)
 * records behind it, decoding on the pool ahead of the interval that
 * needs them (without a pool, just the current record's, decoded on
 * demand). A chunk leaves the window once no record in that span
 * refers to it; the shared cache is read first and, when @p populate,
 * filled as chunks decode. Each chunk decodes as one task, through a
 * FrameSource of its own.
 */
class AtcCursor::LossyPass
{
  public:
    LossyPass(std::shared_ptr<const AtcIndex> index,
              parallel::ThreadPool *pool, size_t first, size_t end,
              bool populate)
        : index_(std::move(index)), pool_(pool),
          depth_(parallel::windowDepth(pool)), next_(first), end_(end),
          populate_(populate)
    {}

    LossyPass(const LossyPass &) = delete;
    LossyPass &operator=(const LossyPass &) = delete;

    /** Produce up to @p n regenerated records; 0 at the pass's end. */
    size_t
    read(uint64_t *out, size_t n)
    {
        size_t got = 0;
        while (got < n) {
            if (pos_ == current_.size()) {
                if (!nextInterval())
                    break;
                continue; // an empty interval record is possible
            }
            size_t take = std::min(n - got, current_.size() - pos_);
            std::memcpy(out + got, current_.data() + pos_,
                        take * sizeof(uint64_t));
            got += take;
            pos_ += take;
        }
        return got;
    }

  private:
    /** A chunk of the window: its id and its decoded records. */
    struct Slot
    {
        uint32_t id;
        parallel::Task<BlockCache<uint64_t>::Ptr> chunk;
    };

    /** Make record next_ the current interval; false at the end. A
     *  stored chunk or an untranslated imitation is served straight
     *  from its decoded chunk, a translated one from interval_. */
    bool
    nextInterval()
    {
        if (next_ >= end_)
            return false;
        const IntervalRecord &rec = index_->info().records[next_];
        // Asked every interval, so the window keeps its readahead
        // moving even through a run of intervals sharing one chunk.
        BlockCache<uint64_t>::Ptr held = fetch(next_);
        ++next_;
        const std::vector<uint64_t> &chunk = *held;
        ATC_CHECK(chunk.size() == rec.length,
                  "interval record length mismatch");
        if (rec.kind == IntervalRecord::Kind::Chunk ||
            rec.trans.plane_mask == 0) {
            current_ = chunk;
        } else {
            interval_.resize(rec.length);
            for (size_t i = 0; i < chunk.size(); ++i)
                interval_[i] = rec.trans.apply(chunk[i]);
            current_ = interval_;
        }
        held_ = std::move(held); // keeps current_'s chunk alive
        pos_ = 0;
        return true;
    }

    /** @return the decoded chunk of interval record @p i. */
    BlockCache<uint64_t>::Ptr
    fetch(size_t i)
    {
        const std::vector<IntervalRecord> &records = index_->info().records;
        size_t stop = std::max(i + 1, std::min(end_, i + 1 + depth_));
        auto upcoming = [&](uint32_t id) {
            for (size_t r = i; r < stop; ++r)
                if (records[r].chunk_id == id)
                    return true;
            return false;
        };
        std::erase_if(slots_,
                      [&](const Slot &s) { return !upcoming(s.id); });
        for (size_t r = i; r < stop; ++r)
            if (find(records[r].chunk_id) == nullptr)
                slots_.push_back(schedule(records[r].chunk_id));
        return find(records[i].chunk_id)->chunk.get();
    }

    Slot *
    find(uint32_t id)
    {
        for (Slot &s : slots_)
            if (s.id == id)
                return &s;
        return nullptr;
    }

    Slot
    schedule(uint32_t id)
    {
        if (BlockCache<uint64_t>::Ptr hit = index_->chunkCache().get(id))
            return {id, parallel::Task<BlockCache<uint64_t>::Ptr>(hit)};
        return {id, {pool_, [index = index_, id, populate = populate_] {
                         return keep(index->chunkCache(), populate, id,
                                     decode(index, id));
                     }}};
    }

    /**
     * Chunk @p id in full: a pass from its first frame with no pool —
     * the task already runs on one — through the inverse transform,
     * checked for trailing bytes at the end. Timed under
     * lossy.chunk_decode_us.
     */
    static std::vector<uint64_t>
    decode(const std::shared_ptr<const AtcIndex> &index, uint32_t id)
    {
        obs::StageTimer t(chunkDecodeUs());
        const LosslessParams &pipeline = index->info().pipeline;
        FrameSource frames(index, id, nullptr, 0,
                           index->chunkLayout(id).frames.size(), true);
        TransformDecoder transform(pipeline.transform, frames,
                                   pipeline.buffer_addrs);
        std::vector<uint64_t> addrs;
        uint64_t buf[4096];
        while (size_t got = transform.read(buf, 4096))
            addrs.insert(addrs.end(), buf, buf + got);
        frames.verifyEnd();
        return addrs;
    }

    std::shared_ptr<const AtcIndex> index_;
    parallel::ThreadPool *pool_;
    size_t depth_;
    size_t next_; ///< next interval record to regenerate
    size_t end_;
    bool populate_;
    std::vector<Slot> slots_;
    BlockCache<uint64_t>::Ptr held_; ///< chunk of the current interval
    std::vector<uint64_t> interval_; ///< a translated imitation
    std::span<const uint64_t> current_;
    size_t pos_ = 0; ///< next record of current_ to serve
};

AtcCursor::AtcCursor(std::shared_ptr<const AtcIndex> index,
                     std::shared_ptr<parallel::ThreadPool> pool)
    : index_(std::move(index)), pool_(std::move(pool))
{
    start(0);
}

AtcCursor::~AtcCursor() = default;

void
AtcCursor::start(uint64_t rec)
{
    if (index_->mode() == Mode::Lossy)
        startLossy(rec);
    else
        startLossless(rec);
}

void
AtcCursor::startLossless(uint64_t rec)
{
    transform_.reset();
    frames_.reset();
    pos_ = rec;
    if (rec == index_->size() && rec != 0)
        return; // positioned at end: nothing left to decode

    // Record -> containing transform buffer -> raw byte offset ->
    // containing frame (binary search) -> compressed byte offset.
    // Only the frames from there on are ever decoded.
    const comp::StreamLayout &layout = index_->chunkLayout(0);
    const LosslessParams &pipeline = index_->info().pipeline;
    uint64_t b = index_->bufferOf(rec);
    uint64_t raw_off = index_->bufferRawOffset(b);
    ATC_CHECK(raw_off < layout.rawTotal(),
              "container truncated: record " + std::to_string(rec) +
                  " lies past the indexed frames");
    size_t f = layout.frameContaining(raw_off);
    // Only a full pass is known to read on: a seek may read a handful
    // of records, so it decodes on demand and queues nothing ahead. A
    // full pass decodes frames and inverse-transforms buffers ahead.
    parallel::ThreadPool *pool = rec == 0 ? pool_.get() : nullptr;
    frames_ = std::make_unique<FrameSource>(index_, 0, pool, f,
                                            layout.frames.size(), rec == 0);
    // Discard the tail of the frame that precedes the buffer start,
    // then the records that precede the target inside its buffer.
    frames_->skip(raw_off - layout.raw_starts[f]);
    transform_ = std::make_unique<TransformDecoder>(
        pipeline.transform, *frames_, pipeline.buffer_addrs, pool);
    pos_ = b * pipeline.buffer_addrs;
    discardRecords(
        [this](uint64_t *out, size_t take) { return read(out, take); },
        rec - pos_, "container truncated while seeking");
}

void
AtcCursor::startLossy(uint64_t rec)
{
    // Land on the boundary of the interval containing the request —
    // the documented lossy approximation. tell() reports the landing
    // point, which is never past the request.
    const std::vector<uint64_t> &starts = index_->recordStarts();
    size_t records = index_->info().records.size();
    size_t i = rec == index_->size() ? records
                                     : recordContaining(starts, rec);
    // As in startLossless, only a full pass decodes ahead; it is also
    // the one pass that leaves the cache alone (see the file comment).
    // All cursors over one index decode chunks through the shared
    // cache, so a working set warmed by any of them serves all.
    parallel::ThreadPool *pool = i == 0 ? pool_.get() : nullptr;
    lossy_ = std::make_unique<LossyPass>(index_, pool, i, records,
                                         pool == nullptr);
    pos_ = rec == index_->size() ? rec : starts[i];
}

size_t
AtcCursor::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    if (lossy_) {
        got = lossy_->read(out, n);
    } else if (transform_) {
        got = transform_->read(out, n);
        if (got == 0 && n > 0)
            frames_->verifyEnd();
    }
    pos_ += got;
    // A clean end before the INFO-recorded count means chunk data is
    // missing — fail loudly rather than return a shortened trace.
    if (got == 0 && n > 0)
        ATC_CHECK(pos_ == index_->size(),
                  "container truncated: INFO records " +
                      std::to_string(index_->size()) +
                      " values but only " + std::to_string(pos_) +
                      " could be decoded");
    return got;
}

util::Status
AtcCursor::seek(uint64_t record_index)
{
    if (record_index > index_->size())
        return util::Status::error(
            "seek out of range: record " + std::to_string(record_index) +
            " exceeds trace size " + std::to_string(index_->size()));
    return util::toStatus([&] { start(record_index); });
}

void
AtcCursor::rangeLossless(uint64_t begin, uint64_t end,
                         std::vector<uint64_t> &out)
{
    // Covering transform buffers -> covering frames; decode exactly
    // those frames, inverse-transform, and slice the requested records
    // out. The cursor's own stream is left untouched.
    const LosslessParams &pipeline = index_->info().pipeline;
    const comp::StreamLayout &layout = index_->chunkLayout(0);
    uint64_t b0 = index_->bufferOf(begin);
    uint64_t b1 = index_->bufferOf(end - 1);
    uint64_t raw0 = index_->bufferRawOffset(b0);
    uint64_t raw1 = index_->bufferRawOffset(b1) +
                    util::varintLen(index_->bufferLen(b1)) +
                    8 * index_->bufferLen(b1);
    ATC_CHECK(raw1 <= layout.rawTotal(),
              "container truncated: range lies past the indexed frames");
    size_t f0 = layout.frameContaining(raw0);
    size_t f1 = layout.frameContaining(raw1 - 1);

    FrameSource frames(index_, 0, pool_.get(), f0, f1 + 1, false);
    frames.skip(raw0 - layout.raw_starts[f0]);
    TransformDecoder transform(pipeline.transform, frames,
                               pipeline.buffer_addrs);
    auto read = [&transform](uint64_t *o, size_t n) {
        return transform.read(o, n);
    };
    discardRecords(read, begin - b0 * pipeline.buffer_addrs,
                   "container truncated inside the range");
    out.resize(static_cast<size_t>(end - begin));
    fillRecords(read, out, "container truncated inside the range");
}

void
AtcCursor::rangeLossy(uint64_t begin, uint64_t end,
                      std::vector<uint64_t> &out)
{
    // Unlike seek(), extraction is record-exact: decode the intervals
    // covering the range (whole chunks — the lossy unit of decode) and
    // slice, through a pass of its own so the cursor's stream is left
    // untouched.
    const std::vector<uint64_t> &starts = index_->recordStarts();
    size_t i0 = recordContaining(starts, begin);
    size_t i1 = recordContaining(starts, end - 1);
    LossyPass pass(index_, pool_.get(), i0, i1 + 1, true);
    auto read = [&pass](uint64_t *o, size_t n) { return pass.read(o, n); };
    discardRecords(read, begin - starts[i0],
                   "container truncated inside the range");
    out.resize(static_cast<size_t>(end - begin));
    fillRecords(read, out, "container truncated inside the range");
}

util::Status
AtcCursor::readRange(uint64_t begin, uint64_t end,
                     std::vector<uint64_t> &out)
{
    if (begin > end || end > index_->size())
        return util::Status::error(
            "range out of range: [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") over trace size " +
            std::to_string(index_->size()));
    out.clear();
    if (begin == end)
        return util::Status();
    return util::toStatus([&] {
        if (lossy_)
            rangeLossy(begin, end, out);
        else
            rangeLossless(begin, end, out);
    });
}

} // namespace atc::core

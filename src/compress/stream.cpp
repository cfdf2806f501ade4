#include "compress/stream.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/status.hpp"

namespace atc::comp {

namespace {

// Whole-frame accounting (frames/bytes counters + per-frame latency
// histogram), one set per direction. The per-stage split (BWT vs
// MTF+RLE vs entropy) lives inside BwcCodec itself.
struct FrameMetrics {
    obs::Counter &frames;
    obs::Counter &raw_bytes;
    obs::Counter &comp_bytes;
    obs::Histogram &frame_us;
};

FrameMetrics &
encodeFrameMetrics()
{
    auto &r = obs::Registry::global();
    static FrameMetrics m{
        r.counter("codec.encode.frames"),
        r.counter("codec.encode.raw_bytes"),
        r.counter("codec.encode.comp_bytes"),
        r.histogram("codec.encode.frame_us"),
    };
    return m;
}

FrameMetrics &
decodeFrameMetrics()
{
    auto &r = obs::Registry::global();
    static FrameMetrics m{
        r.counter("codec.decode.frames"),
        r.counter("codec.decode.raw_bytes"),
        r.counter("codec.decode.comp_bytes"),
        r.histogram("codec.decode.frame_us"),
    };
    return m;
}

/** Largest credible decompressed frame (far above any block size). */
constexpr uint64_t kMaxFrameRawSize = uint64_t(1) << 30;

/**
 * Sanity bound on a frame's declared sizes: generous (codecs may
 * expand incompressible blocks) but tight enough that a corrupt varint
 * cannot drive an absurd allocation — and, with raw_size capped first,
 * the 4x product cannot wrap.
 */
bool
plausibleFrameSizes(uint64_t raw_size, uint64_t comp_size)
{
    return raw_size <= kMaxFrameRawSize &&
           comp_size <= 4 * raw_size + (1u << 20);
}

/**
 * Compress one block into a self-contained frame (header + payload),
 * filling @p entry with its index entry, CRC-32 included.
 */
std::vector<uint8_t>
encodeFrame(const Codec &codec, const uint8_t *data, size_t n,
            FrameIndexEntry &entry)
{
    FrameMetrics &m = encodeFrameMetrics();
    obs::LatencyTimer frame_t(m.frame_us);
    // The compressed length goes into the header, so the payload is
    // produced first.
    std::vector<uint8_t> payload;
    util::VectorSink payload_sink(payload);
    codec.compressBlock(data, n, payload_sink);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::writeVarint(sink, n + 1);
    util::writeVarint(sink, payload.size());
    sink.write(payload.data(), payload.size());
    entry = {n, payload.size(), util::crc32(data, n)};
    frame_t.stop();
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(n));
    m.comp_bytes.add(static_cast<int64_t>(entry.comp_size));
    return out;
}

/** Emit the terminator and the frame index for @p index. */
void
writeStreamEnd(util::ByteSink &sink,
               const std::vector<FrameIndexEntry> &index)
{
    util::writeVarint(sink, 0);
    sink.writeByte(1); // index marker
    util::writeVarint(sink, index.size());
    for (const FrameIndexEntry &e : index) {
        util::writeVarint(sink, e.raw_size);
        util::writeVarint(sink, e.comp_size);
        util::writeLE<uint32_t>(sink, e.crc);
    }
}

} // namespace

bool
readSeekableFrameHeader(util::ByteSource &src, FrameIndexEntry &entry)
{
    uint64_t header = util::readVarint(src);
    if (header == 0)
        return false;
    entry.raw_size = header - 1;
    entry.comp_size = util::readVarint(src);
    ATC_CHECK(plausibleFrameSizes(entry.raw_size, entry.comp_size),
              "corrupt frame header (implausible frame size)");
    return true;
}

void
decodeSeekableFrame(const Codec &codec, const uint8_t *comp,
                    const FrameIndexEntry &frame, std::vector<uint8_t> &out)
{
    FrameMetrics &m = decodeFrameMetrics();
    obs::LatencyTimer frame_t(m.frame_us);
    const size_t raw_size = static_cast<size_t>(frame.raw_size);
    // Decode from the declared extent only: a codec trying to consume
    // past it sees end-of-source, and leftover bytes are a mismatch.
    util::MemorySource frame_src(comp, static_cast<size_t>(frame.comp_size));
    try {
        codec.decompressBlock(frame_src, raw_size, out);
    } catch (const util::Error &) {
        // Only a codec that asked for more than the frame holds overran
        // it; an error after a full read (a bad start row) keeps its
        // own message.
        if (frame_src.overran())
            util::raise("frame overruns its declared compressed length "
                        "(corrupt container)");
        throw;
    }
    ATC_CHECK(out.size() == raw_size, "frame size mismatch");
    ATC_CHECK(frame_src.remaining() == 0,
              "frame compressed-length mismatch (corrupt container)");
    ATC_CHECK(util::crc32(out.data(), out.size()) == frame.crc,
              "frame CRC mismatch (corrupt container)");
    frame_t.stop();
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(raw_size));
    m.comp_bytes.add(static_cast<int64_t>(frame.comp_size));
}

namespace {

/**
 * Read a stream's frame index (positioned just after the terminator),
 * validate it against the frames the scan saw and copy each stored
 * CRC-32 into them.
 * @throws util::Error on a truncated index or any disagreement with
 *         @p seen — the corruption probe for resync-style damage
 */
void
readFrameIndex(util::ByteSource &src, std::vector<FrameIndexEntry> &seen)
{
    uint8_t flag;
    uint64_t count = 0;
    std::vector<FrameIndexEntry> stored;
    try {
        src.readExact(&flag, 1);
        ATC_CHECK(flag == 1, "corrupt frame index marker");
        count = util::readVarint(src);
        ATC_CHECK(count == seen.size(),
                  "frame index disagrees with decoded frame count "
                  "(corrupt container)");
        stored.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
            FrameIndexEntry e;
            e.raw_size = util::readVarint(src);
            e.comp_size = util::readVarint(src);
            e.crc = util::readLE<uint32_t>(src);
            stored.push_back(e);
        }
    } catch (const util::Error &e) {
        if (std::string(e.what()).find("truncated") != std::string::npos)
            util::raise("frame index truncated");
        throw;
    }
    for (uint64_t i = 0; i < count; ++i) {
        ATC_CHECK(stored[i].raw_size == seen[i].raw_size &&
                      stored[i].comp_size == seen[i].comp_size,
                  "frame index entry disagrees with decoded frame " +
                      std::to_string(i) + " (corrupt container)");
        seen[i].crc = stored[i].crc;
    }
}

} // namespace

size_t
StreamLayout::frameContaining(uint64_t raw_off) const
{
    ATC_ASSERT(raw_off < rawTotal());
    // upper_bound over the cumulative starts: the first start > raw_off
    // is the *next* frame's.
    auto it = std::upper_bound(raw_starts.begin(), raw_starts.end(),
                               raw_off);
    return static_cast<size_t>(it - raw_starts.begin()) - 1;
}

StreamLayout
scanSeekableStream(util::ByteSource &src)
{
    StreamLayout layout;
    layout.raw_starts.push_back(0);
    layout.comp_starts.push_back(0);
    uint64_t raw = 0, pos = 0;
    FrameIndexEntry entry;
    while (readSeekableFrameHeader(src, entry)) {
        src.skip(entry.comp_size); // payload untouched — this is a scan
        pos += util::varintLen(entry.raw_size + 1) +
               util::varintLen(entry.comp_size) + entry.comp_size;
        raw += entry.raw_size;
        layout.frames.push_back(entry);
        layout.raw_starts.push_back(raw);
        layout.comp_starts.push_back(pos);
    }
    readFrameIndex(src, layout.frames);
    return layout;
}

FramePayload
fetchIndexedFramePayload(util::ByteSource &src, const StreamLayout &layout,
                         size_t f)
{
    ATC_ASSERT(f < layout.frames.size());
    FrameIndexEntry entry;
    ATC_CHECK(readSeekableFrameHeader(src, entry) &&
                  entry.raw_size == layout.frames[f].raw_size &&
                  entry.comp_size == layout.frames[f].comp_size,
              "frame header disagrees with the scanned index "
              "(container modified while indexed?)");
    FramePayload p;
    p.size = static_cast<size_t>(entry.comp_size);
    if (const uint8_t *span = src.view(p.size)) {
        p.data = span;
        p.keepalive = src.viewKeepalive();
    } else {
        p.owned.resize(p.size);
        src.readExact(p.owned.data(), p.size);
        p.data = p.owned.data();
    }
    return p;
}

StreamCompressor::StreamCompressor(const Codec &codec, util::ByteSink &sink,
                                   size_t block_size,
                                   parallel::ThreadPool *pool)
    : codec_(codec), sink_(sink), block_size_(block_size), pool_(pool)
{
    ATC_ASSERT(block_size_ > 0);
    util::Status fits = checkBlockSize(codec_, block_size_);
    if (!fits.ok())
        util::raise(fits.message());
    buffer_.reserve(block_size_);
}

void
StreamCompressor::write(const uint8_t *data, size_t n)
{
    ATC_ASSERT(!finished_);
    raw_bytes_ += n;
    while (n > 0) {
        size_t room = block_size_ - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), data, data + take);
        data += take;
        n -= take;
        if (buffer_.size() == block_size_)
            emitBlock();
    }
}

void
StreamCompressor::emitBlock()
{
    std::vector<uint8_t> raw = std::move(buffer_);
    buffer_ = std::vector<uint8_t>();
    buffer_.reserve(block_size_);
    pending_.emplace_back(
        pool_, [&codec = codec_, raw = std::move(raw)] {
            EncodedFrame frame;
            frame.bytes =
                encodeFrame(codec, raw.data(), raw.size(), frame.entry);
            return frame;
        });
    drain(parallel::windowDepth(pool_));
}

void
StreamCompressor::drain(size_t keep)
{
    while (pending_.size() > keep) {
        EncodedFrame frame = std::move(pending_.front().get());
        pending_.pop_front();
        sink_.write(frame.bytes.data(), frame.bytes.size());
        index_.push_back(frame.entry);
    }
}

void
StreamCompressor::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!buffer_.empty())
        emitBlock();
    drain(0);
    writeStreamEnd(sink_, index_);
}

std::vector<uint8_t>
compressAll(const Codec &codec, const uint8_t *data, size_t n,
            size_t block_size)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    StreamCompressor sc(codec, sink, block_size);
    sc.write(data, n);
    sc.finish();
    return out;
}

std::vector<uint8_t>
decompressAll(const Codec &codec, const uint8_t *data, size_t n)
{
    util::MemorySource scan(data, n);
    StreamLayout layout = scanSeekableStream(scan);
    ATC_CHECK(scan.remaining() == 0, "trailing bytes after the stream");
    util::MemorySource src(data, n);
    std::vector<uint8_t> out, block;
    for (size_t f = 0; f < layout.frames.size(); ++f) {
        FramePayload p = fetchIndexedFramePayload(src, layout, f);
        decodeSeekableFrame(codec, p.data, layout.frames[f], block);
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

} // namespace atc::comp

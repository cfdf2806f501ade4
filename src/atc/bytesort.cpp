#include "atc/bytesort.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

/** Extract the current top byte of each (shifted) address. */
void
topBytes(const uint64_t *a, size_t n, uint8_t *plane)
{
    for (size_t i = 0; i < n; ++i)
        plane[i] = static_cast<uint8_t>(a[i] >> 56);
}

/**
 * Stable counting sort of addresses by their top byte, shifting each
 * address left by 8 on the way (paper Figure 2's sort_bytes): the next
 * plane to emit is always the top byte.
 */
void
sortByTopByte(const uint64_t *src, size_t n, const uint8_t *plane,
              uint64_t *dst)
{
    uint32_t cnt[256] = {};
    for (size_t i = 0; i < n; ++i)
        cnt[plane[i]]++;
    uint32_t start[256];
    uint32_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        start[c] = sum;
        sum += cnt[c];
    }
    for (size_t i = 0; i < n; ++i)
        dst[start[plane[i]]++] = src[i] << 8;
}

} // namespace

std::vector<uint8_t>
bytesortForward(const uint64_t *addrs, size_t n)
{
    std::vector<uint8_t> out(8 * n);
    if (n == 0)
        return out;

    std::vector<uint64_t> work[2];
    work[0].assign(addrs, addrs + n);
    work[1].resize(n);

    int x = 0;
    for (int j = 0; j < 8; ++j) {
        uint8_t *plane = out.data() + static_cast<size_t>(j) * n;
        topBytes(work[x].data(), n, plane);
        if (j < 7) {
            sortByTopByte(work[x].data(), n, plane, work[x ^ 1].data());
            x ^= 1;
        }
    }
    return out;
}

namespace {

/** @p start[c] = rank of the first byte c of @p plane in the encoder's
 *  stable sort by that plane. */
void
planeStarts(const uint8_t *plane, size_t n, uint32_t start[256])
{
    uint32_t cnt[256] = {};
    for (size_t s = 0; s < n; ++s)
        cnt[plane[s]]++;
    uint32_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        start[c] = sum;
        sum += cnt[c];
    }
}

template <int K>
uint64_t
loadBytes(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < K; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

template <int K>
void
storeBytes(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < K; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/**
 * Undo the encoder's sort by @p plane (plane j = 7 - K) into whole
 * words: @p from packs bytes j+1..7 of every address, K bytes each,
 * in sort order j+1; @p to receives bytes j..7 in order j.
 */
template <int K>
void
unsortToWords(const uint8_t *plane, size_t n, const uint8_t *from,
              uint64_t *to)
{
    uint32_t start[256];
    planeStarts(plane, n, start);
    for (size_t s = 0; s < n; ++s)
        to[s] = loadBytes<K>(from + size_t{K} * start[plane[s]]++) |
                static_cast<uint64_t>(plane[s]) << (8 * K);
}

/**
 * Undo the encoder's sort by @p plane (plane j = 8 - K) into K packed
 * bytes per address, written over the planes from @p plane on: @p from
 * holds bytes j+1..7 of every address in order j+1. Running the
 * stable sort's ranks backwards from the end of each byte's range,
 * address s is written to bytes [K s, K s + K) only after plane bytes
 * s..n-1 have been read, so it never overwrites a byte still needed.
 */
template <int K>
void
unsortToPacked(uint8_t *plane, size_t n, const uint64_t *from)
{
    uint32_t end[256];
    planeStarts(plane, n, end);
    for (int c = 0; c < 255; ++c)
        end[c] = end[c + 1];
    end[255] = static_cast<uint32_t>(n);
    for (size_t s = n; s-- > 0;) {
        uint8_t b = plane[s];
        storeBytes<K>(plane + size_t{K} * s,
                      from[--end[b]] |
                          static_cast<uint64_t>(b) << (8 * (K - 1)));
    }
}

} // namespace

void
bytesortInverseInPlace(uint8_t *planes, size_t n, uint64_t *addrs)
{
    // Undo the encoder's sorts last to first. Plane j lists byte j of
    // every address in sort order j, and the encoder's stable sort by
    // that byte sent rank s of order j to rank start[plane[s]]++ of
    // order j+1. So from bytes j+1..7 of every address in order j+1,
    // one gather through the same ranks yields bytes j..7 in order j;
    // order 0 is the original sequence. Plane 7 is already bytes 7..7
    // in order 7. The partial addresses alternate between @p addrs
    // (whole words) and the planes already consumed (packed), so no
    // third array is needed.
    if (n == 0)
        return;
    auto plane = [planes, n](size_t j) { return planes + j * n; };
    unsortToWords<1>(plane(6), n, plane(7), addrs);
    unsortToPacked<3>(plane(5), n, addrs);
    unsortToWords<3>(plane(4), n, plane(5), addrs);
    unsortToPacked<5>(plane(3), n, addrs);
    unsortToWords<5>(plane(2), n, plane(3), addrs);
    unsortToPacked<7>(plane(1), n, addrs);
    unsortToWords<7>(plane(0), n, plane(1), addrs);
}

std::vector<uint8_t>
unshuffleForward(const uint64_t *addrs, size_t n)
{
    std::vector<uint8_t> out(8 * n);
    for (int j = 0; j < 8; ++j) {
        uint8_t *plane = out.data() + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t i = 0; i < n; ++i)
            plane[i] = static_cast<uint8_t>(addrs[i] >> shift);
    }
    return out;
}

void
unshuffleInverse(const uint8_t *bytes, size_t n, uint64_t *addrs)
{
    for (size_t i = 0; i < n; ++i)
        addrs[i] = static_cast<uint64_t>(bytes[i]) << 56;
    for (int j = 1; j < 8; ++j) {
        const uint8_t *plane = bytes + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t i = 0; i < n; ++i)
            addrs[i] |= static_cast<uint64_t>(plane[i]) << shift;
    }
}

TransformEncoder::TransformEncoder(Transform transform, size_t buffer_addrs,
                                   util::ByteSink &out)
    : transform_(transform), capacity_(buffer_addrs), out_(out)
{
    ATC_CHECK(capacity_ > 0 && capacity_ <= kMaxBufferAddrs,
              "bytesort buffer size out of range");
    buffer_.reserve(capacity_);
}

void
TransformEncoder::write(const uint64_t *addrs, size_t n)
{
    ATC_ASSERT(!finished_);
    count_ += n;
    while (n > 0) {
        size_t room = capacity_ - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), addrs, addrs + take);
        addrs += take;
        n -= take;
        if (buffer_.size() == capacity_)
            emitBuffer();
    }
}

namespace {

// Pure transform compute time, excluding the nested sink writes /
// source reads (those land in codec and io metrics — timing the whole
// body here would double-count them).
struct TransformMetrics {
    obs::Counter &encode_us;
    obs::Counter &decode_us;
    obs::Counter &encode_buffers;
    obs::Counter &decode_buffers;
};

TransformMetrics &
transformMetrics()
{
    auto &r = obs::Registry::global();
    static TransformMetrics m{
        r.counter("atc.transform.encode_us"),
        r.counter("atc.transform.decode_us"),
        r.counter("atc.transform.encode_buffers"),
        r.counter("atc.transform.decode_buffers"),
    };
    return m;
}

/** @return how many buffers a decoder over @p pool inverse-transforms
 *  ahead of the one being served (0 without a pool). */
size_t
ringDepth(const parallel::ThreadPool *pool)
{
    // The inverse transform is about a quarter of a buffer's decode
    // work (the codec frames are the rest), so one buffer ahead per
    // four decoding threads — the workers plus the helping caller —
    // keeps pace. Each buffer ahead holds its planes and addresses, 8
    // bytes per address apiece.
    if (pool == nullptr)
        return 0;
    return std::max<size_t>(1, (pool->size() + 1) / 4);
}

/**
 * Inverse-transform one buffer: @p planes (8n bytes, clobbered) to
 * @p out (n addresses). Runs on the decoder's thread or as a pool task.
 */
void
invert(Transform transform, uint8_t *planes, size_t n, uint64_t *out)
{
    if (transform == Transform::None) {
        // Raw little-endian words: a copy, not transform compute.
        for (size_t i = 0; i < n; ++i) {
            uint64_t a = 0;
            for (int k = 7; k >= 0; --k)
                a = a << 8 | planes[8 * i + k];
            out[i] = a;
        }
        return;
    }
    obs::StageTimer t(transformMetrics().decode_us);
    switch (transform) {
      case Transform::Unshuffle:
        unshuffleInverse(planes, n, out);
        break;
      case Transform::Bytesort:
        bytesortInverseInPlace(planes, n, out);
        break;
      case Transform::Delta: {
          unshuffleInverse(planes, n, out);
          uint64_t prev = 0;
          for (size_t i = 0; i < n; ++i) {
              out[i] += prev;
              prev = out[i];
          }
          break;
      }
      default:
        ATC_ASSERT(false && "unreachable transform");
    }
}

}  // namespace

void
TransformEncoder::emitBuffer()
{
    TransformMetrics &m = transformMetrics();
    m.encode_buffers.inc();
    size_t n = buffer_.size();
    util::writeVarint(out_, n);
    switch (transform_) {
      case Transform::None:
        // No transform: the LE serialization loop is I/O, not compute.
        for (uint64_t a : buffer_)
            util::writeLE<uint64_t>(out_, a);
        break;
      case Transform::Unshuffle: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint8_t> planes = unshuffleForward(buffer_.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
      case Transform::Bytesort: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint8_t> planes = bytesortForward(buffer_.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
      case Transform::Delta: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint64_t> deltas(n);
          uint64_t prev = 0;
          for (size_t i = 0; i < n; ++i) {
              deltas[i] = buffer_[i] - prev;
              prev = buffer_[i];
          }
          std::vector<uint8_t> planes = unshuffleForward(deltas.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
    }
    buffer_.clear();
}

void
TransformEncoder::finish()
{
    if (finished_)
        return;
    if (!buffer_.empty())
        emitBuffer();
    util::writeVarint(out_, 0);
    finished_ = true;
}

TransformDecoder::TransformDecoder(Transform transform, util::ByteSource &in,
                                   uint64_t max_buffer,
                                   parallel::ThreadPool *pool)
    : transform_(transform), in_(in), max_buffer_(max_buffer), pool_(pool),
      depth_(ringDepth(pool))
{
}

TransformDecoder::~TransformDecoder()
{
    // Pool tasks write into the ring's arrays.
    for (Slot &slot : ring_)
        if (slot.inverted.valid())
            pool_->wait(slot.inverted);
}

bool
TransformDecoder::readBuffer(Slot &slot)
{
    uint8_t first;
    if (in_.read(&first, 1) == 0)
        return false;
    uint64_t n = first & 0x7F;
    int shift = 7;
    while (first & 0x80) {
        in_.readExact(&first, 1);
        n |= static_cast<uint64_t>(first & 0x7F) << shift;
        shift += 7;
        ATC_CHECK(shift <= 63, "corrupt bytesort frame header");
    }
    if (n == 0)
        return false;
    ATC_CHECK(n <= max_buffer_,
              "corrupt bytesort frame header (buffer length " +
                  std::to_string(n) + " exceeds the buffer size " +
                  std::to_string(max_buffer_) + ")");

    transformMetrics().decode_buffers.inc();
    slot.planes.resize(8 * n);
    in_.readExact(slot.planes.data(), slot.planes.size());
    slot.addrs.resize(n);
    return true;
}

void
TransformDecoder::launch(Slot &slot)
{
    auto task = [transform = transform_, planes = slot.planes.data(),
                 n = slot.addrs.size(), out = slot.addrs.data()] {
        invert(transform, planes, n, out);
    };
    if (pool_ != nullptr)
        slot.inverted = pool_->async(task);
    else
        task();
}

void
TransformDecoder::topUp()
{
    while (!done_ && ring_.size() < 1 + depth_) {
        ring_.push_back(std::exchange(spare_, {}));
        Slot &slot = ring_.back();
        try {
            if (!readBuffer(slot)) {
                done_ = true;
                ring_.pop_back();
                return;
            }
            launch(slot);
        } catch (...) {
            // Buffers before this one are still served first; the
            // error surfaces when the reader reaches it.
            slot.failed = std::current_exception();
            done_ = true;
        }
    }
}

bool
TransformDecoder::refill()
{
    if (current_) {
        // The front buffer is served; the next one read reuses its
        // arrays.
        spare_ = std::move(ring_.front());
        ring_.pop_front();
        current_ = false;
    }
    topUp();
    if (ring_.empty())
        return false;
    Slot &front = ring_.front();
    if (front.failed)
        std::rethrow_exception(front.failed);
    if (front.inverted.valid()) {
        try {
            pool_->wait(front.inverted);
            front.inverted.get();
        } catch (...) {
            front.failed = std::current_exception();
            throw;
        }
    }
    if (depth_ == 0)
        front.planes = {}; // without a ring, hold just the addresses
    current_ = true;
    pos_ = 0;
    return true;
}

size_t
TransformDecoder::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (!current_ || pos_ == ring_.front().addrs.size()) {
            if (!refill())
                break;
        }
        const std::vector<uint64_t> &buffer = ring_.front().addrs;
        size_t avail = buffer.size() - pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::memcpy(out + got, buffer.data() + pos_,
                    take * sizeof(uint64_t));
        got += take;
        pos_ += take;
    }
    return got;
}

} // namespace atc::core

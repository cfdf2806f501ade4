#include "atc/bytesort.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::core {

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
 * Emit plane j = 8 - K and sort by it: @p from holds bytes j..7 of
 * every address in order j, as K-byte words; their top bytes go to
 * @p plane, and the stable sort by them sends each word's other K - 1
 * bytes, packed, to rank start[byte]++ of order j + 1 at @p to.
 */
template <int K>
void
sortWordsToPacked(const uint64_t *from, size_t n, uint8_t *plane,
                  uint8_t *to)
{
    for (size_t s = 0; s < n; ++s)
        plane[s] = static_cast<uint8_t>(from[s] >> (8 * (K - 1)));
    uint32_t start[256];
    planeStarts(plane, n, start);
    for (size_t s = 0; s < n; ++s)
        storeBytes<K - 1>(to + size_t{K - 1} * start[plane[s]]++, from[s]);
}

/**
 * Emit plane j = 8 - K and sort by it, for bytes j..7 held packed, K
 * bytes per address in order j, at @p packed: plane j is written over
 * them from the start, and the stable sort sends each address's other
 * K - 1 bytes to @p to as words. Plane byte s lands on bytes that
 * address s or an earlier one occupied, all read before.
 */
template <int K>
void
sortPackedToWords(uint8_t *packed, size_t n, uint64_t *to)
{
    uint32_t cnt[256] = {};
    for (size_t s = 0; s < n; ++s)
        cnt[packed[size_t{K} * s + K - 1]]++;
    uint32_t start[256];
    uint32_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        start[c] = sum;
        sum += cnt[c];
    }
    const uint64_t low = (uint64_t(1) << (8 * (K - 1))) - 1;
    for (size_t s = 0; s < n; ++s) {
        uint64_t v = loadBytes<K>(packed + size_t{K} * s);
        uint8_t b = static_cast<uint8_t>(v >> (8 * (K - 1)));
        packed[s] = b;
        to[start[b]++] = v & low;
    }
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
bytesortForward(uint64_t *addrs, size_t n, uint8_t *planes)
{
    // Plane j lists byte j of every address in sort order j; order 0
    // is the original sequence, and order j + 1 is the stable sort of
    // order j by byte j (paper Figure 2's sort_bytes). After plane j
    // only bytes j+1..7 still matter, and they alternate between
    // @p addrs (whole words) and the planes not yet emitted (packed:
    // 8 - j - 1 bytes each fill them exactly), so no third array is
    // needed. The inverse below runs the same steps backwards.
    if (n == 0)
        return;
    auto plane = [planes, n](size_t j) { return planes + j * n; };
    sortWordsToPacked<8>(addrs, n, plane(0), plane(1));
    sortPackedToWords<7>(plane(1), n, addrs);
    sortWordsToPacked<6>(addrs, n, plane(2), plane(3));
    sortPackedToWords<5>(plane(3), n, addrs);
    sortWordsToPacked<4>(addrs, n, plane(4), plane(5));
    sortPackedToWords<3>(plane(5), n, addrs);
    sortWordsToPacked<2>(addrs, n, plane(6), plane(7));
}

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

void
unshuffleForward(const uint64_t *addrs, size_t n, uint8_t *planes)
{
    for (int j = 0; j < 8; ++j) {
        uint8_t *plane = planes + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t i = 0; i < n; ++i)
            plane[i] = static_cast<uint8_t>(addrs[i] >> shift);
    }
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
    // One buffer ahead per three decoding threads (the workers plus
    // the helping caller), rounded up, keeps pace with the codec. At
    // one per four, 4 threads kept one buffer ahead and the pooled read
    // waited on it. Re-measured with the eight-chain codec walk (archive
    // benchmark on a shared 4-vCPU Xeon, 4 threads, medians of 3): 1
    // ahead read in 521 ms, 2 (this rule) in 440 ms, 3 in 431 ms for
    // 8 MiB more peak RSS. Each buffer ahead holds its planes and
    // addresses, 8 bytes per address apiece.
    if (pool == nullptr)
        return 0;
    return (pool->size() + 3) / 3;
}

/** Addresses per forward-transform batch, at least (whole buffers). */
constexpr size_t kBatchAddrs = size_t(1) << 17;

/**
 * Forward-transform one buffer: @p addrs (n addresses, clobbered) to
 * @p planes (8n bytes). Runs on the encoder's thread or as a pool task.
 * The inverse of invert().
 */
void
forward(Transform transform, uint64_t *addrs, size_t n, uint8_t *planes)
{
    if (transform == Transform::None) {
        // Raw little-endian words: a copy, not transform compute.
        for (size_t i = 0; i < n; ++i)
            for (int k = 0; k < 8; ++k)
                planes[8 * i + k] = static_cast<uint8_t>(addrs[i] >> 8 * k);
        return;
    }
    obs::StageTimer t(transformMetrics().encode_us);
    switch (transform) {
      case Transform::Unshuffle:
        unshuffleForward(addrs, n, planes);
        break;
      case Transform::Bytesort:
        bytesortForward(addrs, n, planes);
        break;
      case Transform::Delta: {
          uint64_t prev = 0;
          for (size_t i = 0; i < n; ++i) {
              uint64_t a = addrs[i];
              addrs[i] = a - prev;
              prev = a;
          }
          unshuffleForward(addrs, n, planes);
          break;
      }
      default:
        ATC_ASSERT(false && "unreachable transform");
    }
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

TransformEncoder::TransformEncoder(Transform transform, size_t buffer_addrs,
                                   util::ByteSink &out,
                                   parallel::ThreadPool *pool)
    : transform_(transform), capacity_(buffer_addrs), out_(out), pool_(pool)
{
    ATC_CHECK(capacity_ > 0 && capacity_ <= kMaxBufferAddrs,
              "bytesort buffer size out of range");
    batch_addrs_ = (kBatchAddrs + capacity_ - 1) / capacity_ * capacity_;
    filling_.addrs.reserve(batch_addrs_);
}

void
TransformEncoder::write(const uint64_t *addrs, size_t n)
{
    ATC_ASSERT(!finished_);
    count_ += n;
    while (n > 0) {
        size_t room = batch_addrs_ - filling_.addrs.size();
        size_t take = n < room ? n : room;
        filling_.addrs.insert(filling_.addrs.end(), addrs, addrs + take);
        addrs += take;
        n -= take;
        if (filling_.addrs.size() == batch_addrs_)
            launch();
    }
}

void
TransformEncoder::launch()
{
    Batch batch = std::move(filling_);
    batch.planes.resize(8 * batch.addrs.size());
    pending_.emplace_back(
        pool_, [transform = transform_, capacity = capacity_,
                batch = std::move(batch)]() mutable {
            size_t n = batch.addrs.size();
            for (size_t off = 0; off < n; off += capacity)
                forward(transform, batch.addrs.data() + off,
                        std::min(capacity, n - off),
                        batch.planes.data() + 8 * off);
            return std::move(batch);
        });
    drain(pool_ != nullptr ? 1 : 0);
    filling_ = std::exchange(spare_, {});
    filling_.addrs.clear();
    filling_.addrs.reserve(batch_addrs_);
}

void
TransformEncoder::drain(size_t keep)
{
    while (pending_.size() > keep) {
        Batch batch = std::move(pending_.front().get());
        pending_.pop_front();
        size_t n = batch.addrs.size();
        for (size_t off = 0; off < n; off += capacity_) {
            size_t len = std::min(capacity_, n - off);
            transformMetrics().encode_buffers.inc();
            util::writeVarint(out_, len);
            out_.write(batch.planes.data() + 8 * off, 8 * len);
        }
        spare_ = std::move(batch);
    }
}

void
TransformEncoder::finish()
{
    if (finished_)
        return;
    if (!filling_.addrs.empty())
        launch();
    drain(0);
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
            slot.inverted = parallel::Task<void>(
                pool_, [transform = transform_, planes = slot.planes.data(),
                        n = slot.addrs.size(), out = slot.addrs.data()] {
                    invert(transform, planes, n, out);
                });
        } catch (...) {
            // Buffers before this one are still served first; the
            // error surfaces when the reader reaches it.
            slot.inverted = parallel::Task<void>(std::current_exception());
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
    front.inverted.get();
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

#include "atc/bytesort.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

/** The little-endian 8 bytes at @p p, at any alignment. */
inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Store @p v as 8 little-endian bytes at @p p, at any alignment. */
inline void
store64(uint8_t *p, uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, 8);
}

/** The K little-endian bytes at @p p, touching no byte past them. */
template <int K>
uint64_t
loadExact(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < K; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Store the low K bytes of @p v at @p p, touching no byte past them. */
template <int K>
void
storeExact(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < K; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Mask of the low K bytes of a word. */
template <int K>
constexpr uint64_t kLowBytes = (uint64_t(1) << (8 * K)) - 1;

/**
 * @return how many leading elements of a packed array of @p end K-byte
 * elements can be read or written as whole 8-byte words without
 * reaching past its end; the rest take exact-width access. One-byte
 * elements gain nothing from words and always take bytes.
 */
template <int K>
size_t
wordEnd(size_t end)
{
    constexpr size_t span = (8 + K - 1) / K; // elements a word touches
    if constexpr (K == 1)
        return 0;
    return end >= span ? end - span + 1 : 0;
}

/** @return how many of the @p len elements from index @p i lie below
 *  index @p limit. */
inline size_t
below(size_t i, size_t len, size_t limit)
{
    return limit > i ? std::min(len, limit - i) : 0;
}

/**
 * Count the keys @p keys[Stride * s], s < n (n > 0), into @p cnt and
 * @return how many runs of equal keys they form. Four accumulators
 * keep a run of one key from chaining every increment through a
 * single counter.
 */
template <int Stride>
size_t
countKeys(const uint8_t *keys, size_t n, uint32_t cnt[256])
{
    uint32_t part[4][256] = {};
    size_t changes = 0;
    uint8_t prev = keys[0];
    size_t s = 0;
    for (; s + 4 <= n; s += 4) {
        const uint8_t a = keys[Stride * s], b = keys[Stride * (s + 1)],
                      c = keys[Stride * (s + 2)], d = keys[Stride * (s + 3)];
        part[0][a]++;
        part[1][b]++;
        part[2][c]++;
        part[3][d]++;
        changes += (a != prev) + (b != a) + (c != b) + (d != c);
        prev = d;
    }
    for (; s < n; ++s) {
        const uint8_t a = keys[Stride * s];
        part[0][a]++;
        changes += a != prev;
        prev = a;
    }
    for (int c = 0; c < 256; ++c)
        cnt[c] = part[0][c] + part[1][c] + part[2][c] + part[3][c];
    return changes + 1;
}

/** @return the end of the run of key @p c that starts at element @p s
 *  of @p keys (stride @p Stride, n elements). */
template <int Stride>
size_t
runEnd(const uint8_t *keys, size_t s, size_t n, uint8_t c)
{
    if constexpr (Stride == 1) {
        const uint64_t all = 0x0101010101010101ull * c;
        for (; s + 8 <= n; s += 8)
            if (uint64_t diff = load64(keys + s) ^ all)
                return s + std::countr_zero(diff) / 8;
    }
    while (s < n && keys[Stride * s] == c)
        ++s;
    return s;
}

/** @return the start of the run of key @p c that ends just before
 *  element @p s of the contiguous @p keys. */
inline size_t
runBegin(const uint8_t *keys, size_t s, uint8_t c)
{
    const uint64_t all = 0x0101010101010101ull * c;
    for (; s >= 8; s -= 8)
        if (uint64_t diff = load64(keys + s - 8) ^ all)
            return s - std::countl_zero(diff) / 8;
    while (s > 0 && keys[s - 1] == c)
        --s;
    return s;
}

/**
 * The one stable counting sort behind every bytesort pass, in both
 * directions. Element s (in sequence order) has key @p keys[Stride * s]
 * and rank r in the sort by it; @p move(s, r, len, c, end) moves
 * elements s..s+len-1, all of key c, to or from ranks r..r+len-1,
 * where @p end is the end of key c's block of ranks.
 *
 * The kernel is picked per plane from the run count its histogram
 * pass returns. A plane of fewer than n/4 runs of equal keys is moved
 * one run per call: a key's next rank is read once per run, and the
 * run moves as one contiguous block with no dependency from element to
 * element. Any other plane moves one element per call through the
 * classic next[key]++. With @p Backward the elements are visited last
 * to first, each key's ranks from the end of its block down, for moves
 * that write over the keys before them.
 */
template <int Stride, bool Backward, typename Move>
void
sortMoves(const uint8_t *keys, size_t n, Move &&move)
{
    uint32_t cnt[256];
    const bool by_runs = 4 * countKeys<Stride>(keys, n, cnt) < n;
    uint32_t bound[257]; // key c's ranks are [bound[c], bound[c + 1])
    bound[0] = 0;
    for (int c = 0; c < 256; ++c)
        bound[c + 1] = bound[c] + cnt[c];
    uint32_t next[256];
    std::memcpy(next, bound + (Backward ? 1 : 0), sizeof next);
    if constexpr (!Backward) {
        if (by_runs) {
            for (size_t s = 0; s < n;) {
                const uint8_t c = keys[Stride * s];
                const size_t e = runEnd<Stride>(keys, s, n, c);
                move(s, size_t{next[c]}, e - s, c, size_t{bound[c + 1]});
                next[c] += static_cast<uint32_t>(e - s);
                s = e;
            }
        } else {
            for (size_t s = 0; s < n; ++s) {
                const uint8_t c = keys[Stride * s];
                move(s, size_t{next[c]++}, size_t{1}, c,
                     size_t{bound[c + 1]});
            }
        }
    } else {
        static_assert(Stride == 1);
        if (by_runs) {
            for (size_t s = n; s > 0;) {
                const uint8_t c = keys[s - 1];
                const size_t b = runBegin(keys, s, c);
                next[c] -= static_cast<uint32_t>(s - b);
                move(b, size_t{next[c]}, s - b, c, size_t{bound[c + 1]});
                s = b;
            }
        } else {
            for (size_t s = n; s-- > 0;) {
                const uint8_t c = keys[s];
                move(s, size_t{--next[c]}, size_t{1}, c,
                     size_t{bound[c + 1]});
            }
        }
    }
}

/**
 * Emit plane j = 8 - K and sort by it: @p from holds bytes j..7 of
 * every address in order j, as K-byte words; their top bytes go to
 * @p plane, and the stable sort by them sends each word's other
 * P = K - 1 bytes, packed, to their rank of order j + 1 at @p to
 * (which ends where the planes end). A word store there also writes
 * garbage over the next ranks; the key's later addresses fill those in
 * rank order, so a store may use a whole word only while the word
 * stays inside the key's block of ranks.
 */
template <int K>
void
sortWordsToPacked(const uint64_t *from, size_t n, uint8_t *plane,
                  uint8_t *to)
{
    constexpr int P = K - 1;
    for (size_t s = 0; s < n; ++s)
        plane[s] = static_cast<uint8_t>(from[s] >> (8 * P));
    sortMoves<1, false>(
        plane, n, [&](size_t s, size_t r, size_t len, uint8_t, size_t end) {
            const size_t words = below(r, len, wordEnd<P>(end));
            size_t i = 0;
            for (; i < words; ++i)
                store64(to + P * (r + i), from[s + i]);
            for (; i < len; ++i)
                storeExact<P>(to + P * (r + i), from[s + i]);
        });
}

/**
 * Emit plane j = 8 - K and sort by it, for bytes j..7 held packed, K
 * bytes per address in order j, at @p packed (which ends where the
 * planes end): plane j is written over them from the start, and the
 * stable sort sends each address's other K - 1 bytes to @p to as
 * words. A run's plane bytes are written once its addresses are read,
 * and plane byte s lands on bytes that address s or an earlier one
 * occupied; a word load of address s reads only bytes from K s on,
 * none yet overwritten.
 */
template <int K>
void
sortPackedToWords(uint8_t *packed, size_t n, uint64_t *to)
{
    const size_t safe = wordEnd<K>(n);
    sortMoves<K, false>(
        packed + K - 1, n,
        [&](size_t s, size_t r, size_t len, uint8_t c, size_t) {
            const size_t words = below(s, len, safe);
            size_t i = 0;
            for (; i < words; ++i)
                to[r + i] = load64(packed + K * (s + i)) & kLowBytes<K - 1>;
            for (; i < len; ++i)
                to[r + i] =
                    loadExact<K>(packed + K * (s + i)) & kLowBytes<K - 1>;
            std::memset(packed + s, c, len);
        });
}

/**
 * Undo the encoder's sort by @p plane (plane j = 7 - K) into whole
 * words: @p from packs bytes j+1..7 of every address, K bytes each,
 * in sort order j+1 (ending where the planes end); @p to receives
 * bytes j..7 in order j.
 */
template <int K>
void
unsortToWords(const uint8_t *plane, size_t n, const uint8_t *from,
              uint64_t *to)
{
    const size_t safe = wordEnd<K>(n);
    sortMoves<1, false>(
        plane, n, [&](size_t s, size_t r, size_t len, uint8_t c, size_t) {
            const uint64_t top = static_cast<uint64_t>(c) << (8 * K);
            const size_t words = below(r, len, safe);
            size_t i = 0;
            for (; i < words; ++i)
                to[s + i] =
                    (load64(from + K * (r + i)) & kLowBytes<K>) | top;
            for (; i < len; ++i)
                to[s + i] = loadExact<K>(from + K * (r + i)) | top;
        });
}

/**
 * Undo the encoder's sort by @p plane (plane j = 8 - K) into K packed
 * bytes per address, written over the planes from @p plane on: @p from
 * holds bytes j+1..7 of every address in order j+1. The moves run
 * backwards, so address s is written to bytes [K s, K s + K) only
 * after plane bytes s..n-1 have been read. From s = 8 on, address s is
 * stored as the 8-byte word that ends at its last byte: the bytes
 * below its own cover only addresses written later, never a plane
 * byte still to be read, since K s + K - 8 >= s.
 */
template <int K>
void
unsortToPacked(uint8_t *plane, size_t n, const uint64_t *from)
{
    sortMoves<1, true>(
        plane, n, [&](size_t s, size_t r, size_t len, uint8_t c, size_t) {
            const uint64_t top = static_cast<uint64_t>(c) << (8 * (K - 1));
            const size_t bytes = below(s, len, 8);
            for (size_t i = len; i > bytes;) {
                --i;
                store64(plane + K * (s + i) + K - 8,
                        (from[r + i] | top) << (8 * (8 - K)));
            }
            for (size_t i = bytes; i > 0;) {
                --i;
                storeExact<K>(plane + K * (s + i), from[r + i] | top);
            }
        });
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
    // waited on it. Re-measured with the run-aware kernels, which
    // halved the inverse (archive benchmark on a shared 4-vCPU VM,
    // 4 threads, seeds 1-3): 1 ahead read in 262 / 268 / 237 ms, 2
    // (this rule) in 221 / 224 / 233 ms, 3 in 231 / 252 / 229 ms for
    // 5-10 MiB more peak RSS. Each buffer ahead holds its planes and
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
    // Check the claim against the bytes the stream still holds before
    // sizing the planes by it.
    ATC_CHECK(n <= in_.remaining() / 8,
              "corrupt bytesort frame header (buffer length " +
                  std::to_string(n) + " overruns the " +
                  std::to_string(in_.remaining()) +
                  " bytes left in the stream)");

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

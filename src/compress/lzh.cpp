#include "compress/lzh.hpp"

#include <algorithm>
#include <cstring>

#include "compress/huffman.hpp"
#include "util/bitio.hpp"
#include "util/status.hpp"

namespace atc::comp {

namespace {

constexpr int kMinMatch = 4;
constexpr int kMaxMatch = 258;
constexpr uint32_t kWindow = 1u << 16;
constexpr int kHashBits = 16;
constexpr int kMaxChain = 64;

// Litlen alphabet: 0..255 literals, 256 EOB, 257+ length buckets.
constexpr int kEobSym = 256;
constexpr int kLenBase = 257;
constexpr int kNumLenBuckets = 16; // covers length-kMinMatch in [0, 254]
constexpr int kLitLenAlphabet = kLenBase + kNumLenBuckets;
constexpr int kNumDistBuckets = 32; // covers dist-1 in [0, 65535]

/**
 * Geometric bucketing of v >= 0: buckets 0 and 1 are exact, then two
 * buckets per power of two with (e-1) extra bits.
 */
struct Bucket
{
    int id;
    int extra_bits;
    uint32_t extra_val;
};

Bucket
bucketOf(uint32_t v)
{
    if (v < 2)
        return {static_cast<int>(v), 0, 0};
    int e = 31 - __builtin_clz(v); // floor(log2 v), >= 1
    int half = (v >> (e - 1)) & 1;
    return {2 * e + half, e - 1, v & ((1u << (e - 1)) - 1)};
}

/** Lower bound of a bucket (inverse of bucketOf without extra bits). */
uint32_t
bucketBase(int id)
{
    if (id < 2)
        return static_cast<uint32_t>(id);
    int e = id / 2;
    int half = id & 1;
    return (1u << e) | (static_cast<uint32_t>(half) << (e - 1));
}

uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

} // namespace

void
LzhCodec::compressBlock(const uint8_t *data, size_t n,
                        util::ByteSink &out) const
{
    // Tokenize with a hash-chain matcher.
    struct Token
    {
        bool is_match;
        uint8_t literal;
        uint32_t length; // match length
        uint32_t dist;   // match distance, >= 1
    };
    std::vector<Token> tokens;
    tokens.reserve(n / 3 + 16);

    std::vector<int32_t> head(1u << kHashBits, -1);
    std::vector<int32_t> prev(kWindow, -1);

    size_t pos = 0;
    while (pos < n) {
        uint32_t best_len = 0;
        uint32_t best_dist = 0;
        if (pos + kMinMatch <= n) {
            uint32_t h = hash4(data + pos);
            int32_t cand = head[h];
            int chain = 0;
            while (cand >= 0 && pos - cand <= kWindow - 1 &&
                   chain < kMaxChain) {
                size_t limit = n - pos;
                if (limit > kMaxMatch)
                    limit = kMaxMatch;
                uint32_t len = 0;
                while (len < limit && data[cand + len] == data[pos + len])
                    ++len;
                if (len >= kMinMatch && len > best_len) {
                    best_len = len;
                    best_dist = static_cast<uint32_t>(pos - cand);
                    if (len == limit)
                        break;
                }
                cand = prev[cand % kWindow];
                ++chain;
            }
        }

        if (best_len >= kMinMatch) {
            tokens.push_back({true, 0, best_len, best_dist});
            // Insert hash entries for the covered positions.
            size_t end = pos + best_len;
            while (pos < end) {
                if (pos + 4 <= n) {
                    uint32_t h = hash4(data + pos);
                    prev[pos % kWindow] = head[h];
                    head[h] = static_cast<int32_t>(pos);
                }
                ++pos;
            }
        } else {
            tokens.push_back({false, data[pos], 0, 0});
            if (pos + 4 <= n) {
                uint32_t h = hash4(data + pos);
                prev[pos % kWindow] = head[h];
                head[h] = static_cast<int32_t>(pos);
            }
            ++pos;
        }
    }

    // Histogram the two alphabets.
    std::vector<uint64_t> ll_freq(kLitLenAlphabet, 0);
    std::vector<uint64_t> d_freq(kNumDistBuckets, 0);
    for (const Token &t : tokens) {
        if (t.is_match) {
            Bucket lb = bucketOf(t.length - kMinMatch);
            ATC_ASSERT(lb.id < kNumLenBuckets);
            ll_freq[kLenBase + lb.id]++;
            Bucket db = bucketOf(t.dist - 1);
            ATC_ASSERT(db.id < kNumDistBuckets);
            d_freq[db.id]++;
        } else {
            ll_freq[t.literal]++;
        }
    }
    ll_freq[kEobSym]++;

    HuffmanEncoder ll_enc(ll_freq);
    HuffmanEncoder d_enc(d_freq);

    // Without a match there is no distance to code, and no table.
    const bool matches = std::any_of(ll_freq.begin() + kLenBase,
                                     ll_freq.end(),
                                     [](uint64_t f) { return f > 0; });
    util::BitWriter bw(out);
    ll_enc.writeTable(bw);
    if (matches)
        d_enc.writeTable(bw);
    for (const Token &t : tokens) {
        if (t.is_match) {
            Bucket lb = bucketOf(t.length - kMinMatch);
            ll_enc.writeSymbol(bw, kLenBase + lb.id);
            bw.writeBits(lb.extra_val, lb.extra_bits);
            Bucket db = bucketOf(t.dist - 1);
            d_enc.writeSymbol(bw, db.id);
            bw.writeBits(db.extra_val, db.extra_bits);
        } else {
            ll_enc.writeSymbol(bw, t.literal);
        }
    }
    ll_enc.writeSymbol(bw, kEobSym);
    bw.alignAndFlush();
}

void
LzhCodec::decompressBlock(util::ByteSource &in, size_t raw_size,
                          std::vector<uint8_t> &out) const
{
    // Every literal and match is checked against the output still to
    // come, so a crafted block cannot grow `out` past the frame's
    // declared size, however many tokens it holds.
    out.clear();
    util::readBitStream(in, [&](util::BitReader &br) {
        const HuffmanDecoder ll_dec =
            HuffmanDecoder::readTable(br, kLitLenAlphabet);
        const bool matches = ll_dec.maxSymbol() >= kLenBase;
        const HuffmanDecoder d_dec =
            matches ? HuffmanDecoder::readTable(br, kNumDistBuckets)
                    : HuffmanDecoder(std::vector<uint8_t>{});
        for (;;) {
            int sym = ll_dec.decode(br);
            if (sym == kEobSym)
                break;
            if (sym < 256) {
                ATC_CHECK(out.size() < raw_size, "LZH block size mismatch");
                out.push_back(static_cast<uint8_t>(sym));
                continue;
            }
            int id = sym - kLenBase;
            int e = id < 2 ? 0 : id / 2 - 1;
            uint32_t length = bucketBase(id) + br.readBits(e) + kMinMatch;
            int did = d_dec.decode(br);
            int de = did < 2 ? 0 : did / 2 - 1;
            uint32_t dist = bucketBase(did) + br.readBits(de) + 1;
            ATC_CHECK(dist <= out.size(), "LZH distance beyond output");
            ATC_CHECK(length <= raw_size - out.size(),
                      "LZH block size mismatch");
            size_t from = out.size() - dist;
            for (uint32_t i = 0; i < length; ++i)
                out.push_back(out[from + i]);
        }
    });
    ATC_CHECK(out.size() == raw_size, "LZH block size mismatch");
}

} // namespace atc::comp

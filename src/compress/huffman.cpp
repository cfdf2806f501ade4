#include "compress/huffman.hpp"

#include <algorithm>
#include <queue>

#include "util/status.hpp"

namespace atc::comp {

namespace {

/** Tree-derived (unlimited) depths for each used symbol. */
std::vector<uint8_t>
treeDepths(const std::vector<uint64_t> &freq)
{
    const int n = static_cast<int>(freq.size());
    std::vector<uint8_t> depth(n, 0);

    std::vector<int> used;
    for (int i = 0; i < n; ++i) {
        if (freq[i] > 0)
            used.push_back(i);
    }
    if (used.empty())
        return depth;
    if (used.size() == 1) {
        depth[used[0]] = 1;
        return depth;
    }

    // Node ids: [0, n) leaves, internal nodes appended.
    struct Item
    {
        uint64_t weight;
        int node;
        bool operator>(const Item &o) const
        {
            // Tie-break on node id for deterministic trees.
            return weight != o.weight ? weight > o.weight : node > o.node;
        }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    std::vector<int> parent;
    parent.reserve(2 * used.size());
    parent.assign(n, -1);
    for (int i : used)
        heap.push({freq[i], i});

    while (heap.size() > 1) {
        Item a = heap.top();
        heap.pop();
        Item b = heap.top();
        heap.pop();
        int id = static_cast<int>(parent.size());
        parent.push_back(-1);
        parent[a.node] = id;
        parent[b.node] = id;
        heap.push({a.weight + b.weight, id});
    }

    for (int i : used) {
        int d = 0;
        for (int v = i; parent[v] >= 0; v = parent[v])
            ++d;
        ATC_ASSERT(d >= 1 && d < 64);
        depth[i] = static_cast<uint8_t>(d);
    }
    return depth;
}

} // namespace

std::vector<uint8_t>
huffmanLengths(const std::vector<uint64_t> &freq, int limit)
{
    ATC_ASSERT(limit >= 1 && limit <= kMaxCodeLen);
    std::vector<uint8_t> len = treeDepths(freq);

    // Clamp over-long codes, then restore the Kraft inequality
    // sum 2^-len <= 1 by deepening the shallowest fixable codes.
    std::vector<int> used;
    uint64_t kraft = 0; // scaled by 2^limit
    for (size_t i = 0; i < len.size(); ++i) {
        if (len[i] == 0)
            continue;
        if (len[i] > limit)
            len[i] = static_cast<uint8_t>(limit);
        used.push_back(static_cast<int>(i));
        kraft += 1ull << (limit - len[i]);
    }
    ATC_ASSERT(used.size() <= (1ull << limit));

    const uint64_t budget = 1ull << limit;
    while (kraft > budget) {
        // Deepen a symbol with the largest length below the limit; that
        // is the smallest possible step toward a valid code.
        int best = -1;
        for (int i : used) {
            if (len[i] < limit && (best < 0 || len[i] > len[best]))
                best = i;
        }
        ATC_ASSERT(best >= 0);
        kraft -= 1ull << (limit - len[best] - 1);
        ++len[best];
    }
    return len;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint64_t> &freq, int limit)
    : lengths_(huffmanLengths(freq, limit))
{
    buildCodes();
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t> &lengths)
    : lengths_(lengths)
{
    buildCodes();
}

void
HuffmanEncoder::buildCodes()
{
    codes_.assign(lengths_.size(), 0);

    // Canonical assignment: codes ordered by (length, symbol).
    std::vector<int> order;
    for (size_t i = 0; i < lengths_.size(); ++i) {
        if (lengths_[i] > 0)
            order.push_back(static_cast<int>(i));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return lengths_[a] != lengths_[b] ? lengths_[a] < lengths_[b]
                                          : a < b;
    });

    uint32_t code = 0;
    int prev_len = 0;
    for (int sym : order) {
        code <<= (lengths_[sym] - prev_len);
        prev_len = lengths_[sym];
        codes_[sym] = code++;
    }
}

namespace {

/** Groups of 16 symbols in an in-use map of @p alphabet symbols. */
constexpr int
groupsOf(int alphabet)
{
    return (alphabet + 15) / 16;
}

} // namespace

void
HuffmanEncoder::writeTable(util::BitWriter &bw) const
{
    const int alphabet = static_cast<int>(lengths_.size());
    ATC_ASSERT(alphabet <= kMaxAlphabet);
    auto groupBits = [&](int g) {
        uint32_t bits = 0;
        for (int i = 0; i < 16; ++i) {
            const int sym = 16 * g + i;
            bits = bits << 1 | (sym < alphabet && lengths_[sym] > 0);
        }
        return bits;
    };
    for (int g = 0; g < groupsOf(alphabet); ++g)
        bw.writeBit(groupBits(g) != 0);
    for (int g = 0; g < groupsOf(alphabet); ++g) {
        if (uint32_t bits = groupBits(g))
            bw.writeBits(bits, 16);
    }
    int cur = -1;
    for (uint8_t l : lengths_) {
        if (l == 0)
            continue;
        if (cur < 0) {
            cur = l;
            bw.writeBits(l, 5);
        }
        for (; cur < l; ++cur)
            bw.writeBits(0b10, 2);
        for (; cur > l; --cur)
            bw.writeBits(0b11, 2);
        bw.writeBit(0);
    }
    ATC_ASSERT(cur > 0);
}

HuffmanDecoder::HuffmanDecoder(const uint8_t *lengths, size_t n)
{
    ATC_ASSERT(n <= kMaxAlphabet);
    for (size_t i = 0; i < n; ++i) {
        ATC_CHECK(lengths[i] <= kMaxCodeLen, "huffman length out of range");
        count_[lengths[i]]++;
        if (lengths[i] > 0)
            max_symbol_ = static_cast<int>(i);
    }
    count_[0] = 0;

    uint32_t code = 0;
    int32_t index = 0;
    uint64_t kraft = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
        code <<= 1;
        first_code_[l] = code;
        first_index_[l] = index;
        code += count_[l];
        index += count_[l];
        kraft += static_cast<uint64_t>(count_[l]) << (kMaxCodeLen - l);
    }
    ATC_CHECK(kraft <= (1ull << kMaxCodeLen), "invalid huffman table");

    // Symbols by (length, symbol): a counting sort.
    int32_t next[kMaxCodeLen + 2];
    std::copy(first_index_, first_index_ + kMaxCodeLen + 2, next);
    for (size_t i = 0; i < n; ++i) {
        if (lengths[i] > 0)
            sorted_symbols_[next[lengths[i]]++] = static_cast<uint16_t>(i);
    }

    // Every code of kLookupBits or fewer owns the entries its bits
    // prefix; the Kraft check above keeps them inside the table.
    for (int l = 1; l <= kLookupBits; ++l) {
        for (int k = 0; k < count_[l]; ++k) {
            const uint16_t sym = sorted_symbols_[first_index_[l] + k];
            const int span = kLookupBits - l;
            const uint32_t from = (first_code_[l] + k) << span;
            std::fill_n(lookup_ + from, 1u << span,
                        static_cast<uint16_t>(l * kLenUnit + sym));
        }
    }
}

HuffmanDecoder
HuffmanDecoder::readTable(util::BitReader &br, int alphabet)
{
    ATC_ASSERT(alphabet >= 1 && alphabet <= kMaxAlphabet);
    const int groups = groupsOf(alphabet);
    const uint32_t in_use = br.readBits(groups);
    uint32_t maps[groupsOf(kMaxAlphabet)] = {};
    for (int g = 0; g < groups; ++g) {
        if (in_use >> (groups - 1 - g) & 1)
            maps[g] = br.readBits(16);
    }
    ATC_CHECK(std::any_of(maps, maps + groups,
                          [](uint32_t m) { return m != 0; }),
              "corrupt huffman table (empty in-use map)");
    ATC_CHECK(alphabet % 16 == 0 ||
                  (maps[groups - 1] & ((1u << (16 - alphabet % 16)) - 1)) == 0,
              "corrupt huffman table (a symbol past the alphabet)");

    uint8_t lengths[kMaxAlphabet] = {};
    auto inRange = [](int l) { return l >= 1 && l <= kMaxCodeLen; };
    int cur = static_cast<int>(br.readBits(5));
    ATC_CHECK(inRange(cur), "corrupt huffman table (length out of range)");
    for (int sym = 0; sym < alphabet; ++sym) {
        if (!(maps[sym / 16] >> (15 - sym % 16) & 1))
            continue;
        // Steps "10" and "11" up to the "0" that ends the symbol.
        for (br.refill(); br.peek(1); br.refill()) {
            cur += br.peek(2) == 3 ? -1 : 1;
            br.consume(2);
            ATC_CHECK(inRange(cur),
                      "corrupt huffman table (length out of range)");
        }
        br.consume(1);
        lengths[sym] = static_cast<uint8_t>(cur);
    }
    return HuffmanDecoder(lengths, alphabet);
}

int
HuffmanDecoder::decodeLong(util::BitReader &br) const
{
    // No code of kLookupBits or fewer bits matched (decode() refilled).
    const auto bits = static_cast<uint32_t>(br.peek(kMaxCodeLen));
    for (int l = kLookupBits + 1; l <= kMaxCodeLen; ++l) {
        const uint32_t code = bits >> (kMaxCodeLen - l);
        const uint32_t offset = code - first_code_[l];
        if (code >= first_code_[l] && offset < count_[l]) {
            br.consume(l);
            return sorted_symbols_[first_index_[l] + offset];
        }
    }
    util::raise("invalid huffman code in stream");
}

} // namespace atc::comp

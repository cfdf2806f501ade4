/**
 * @file
 * Tests for the bytesort transformation — including the two worked
 * examples from the paper (§4.1 and Figure 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "atc/bytesort.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** Forward bytesort of a copy of @p addrs (the transform consumes them). */
std::vector<uint8_t>
forward(std::vector<uint64_t> addrs)
{
    std::vector<uint8_t> planes(8 * addrs.size());
    core::bytesortForward(addrs.data(), addrs.size(), planes.data());
    return planes;
}

/** Inverse bytesort of a copy of @p planes (the inverse consumes them). */
std::vector<uint64_t>
inverse(std::vector<uint8_t> planes, size_t n)
{
    std::vector<uint64_t> addrs(n);
    core::bytesortInverseInPlace(planes.data(), n, addrs.data());
    return addrs;
}

/**
 * The byte-at-a-time reference kernels: the stable counting sort as
 * the paper states it, one rank start[key]++ per address, with the
 * partial addresses moved one byte at a time. The word-wide, run-aware
 * kernels of bytesort.cpp must produce the same bytes.
 */
namespace ref {

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

std::vector<uint8_t>
forward(std::vector<uint64_t> addrs)
{
    const size_t n = addrs.size();
    std::vector<uint8_t> planes(8 * n);
    if (n == 0)
        return planes;
    auto plane = [&](size_t j) { return planes.data() + j * n; };
    sortWordsToPacked<8>(addrs.data(), n, plane(0), plane(1));
    sortPackedToWords<7>(plane(1), n, addrs.data());
    sortWordsToPacked<6>(addrs.data(), n, plane(2), plane(3));
    sortPackedToWords<5>(plane(3), n, addrs.data());
    sortWordsToPacked<4>(addrs.data(), n, plane(4), plane(5));
    sortPackedToWords<3>(plane(5), n, addrs.data());
    sortWordsToPacked<2>(addrs.data(), n, plane(6), plane(7));
    return planes;
}

std::vector<uint64_t>
inverse(std::vector<uint8_t> planes, size_t n)
{
    std::vector<uint64_t> addrs(n);
    if (n == 0)
        return addrs;
    auto plane = [&](size_t j) { return planes.data() + j * n; };
    unsortToWords<1>(plane(6), n, plane(7), addrs.data());
    unsortToPacked<3>(plane(5), n, addrs.data());
    unsortToWords<3>(plane(4), n, plane(5), addrs.data());
    unsortToPacked<5>(plane(3), n, addrs.data());
    unsortToWords<5>(plane(2), n, plane(3), addrs.data());
    unsortToPacked<7>(plane(1), n, addrs.data());
    unsortToWords<7>(plane(0), n, plane(1), addrs.data());
    return addrs;
}

} // namespace ref

/** Byte s of plane j of a crafted n-address buffer. */
using PlaneShape =
    std::function<uint8_t(size_t n, size_t j, size_t s, util::Rng &)>;

/**
 * Planes whose every plane has one shape. The inverse maps any 8n
 * bytes to n addresses (and the forward maps those back), so a shape
 * chosen plane by plane reaches every kernel, once per packed width K:
 * plane j is the key of the passes that move 7 - j and 8 - j bytes.
 */
const std::pair<const char *, PlaneShape> kShapes[] = {
    {"constant", [](size_t, size_t j, size_t, util::Rng &) {
         return static_cast<uint8_t>(0x40 + j);
     }},
    {"long runs ending in the first and last 8",
     [](size_t n, size_t j, size_t s, util::Rng &) {
         const size_t head = 1 + j % 7, tail = 1 + (j + 3) % 7;
         return static_cast<uint8_t>(s < head ? 0x90 : s + tail < n ? 0x10
                                                                   : 0xF0);
     }},
    {"runs of length 1", [](size_t, size_t j, size_t s, util::Rng &) {
         return static_cast<uint8_t>(s % 3 * 0x51 + j);
     }},
    {"runs of length 2", [](size_t, size_t j, size_t s, util::Rng &) {
         return static_cast<uint8_t>(s / 2 % 3 * 0x51 + j);
     }},
    {"runs of length 3", [](size_t, size_t j, size_t s, util::Rng &) {
         return static_cast<uint8_t>(s / 3 % 3 * 0x51 + j);
     }},
    {"short runs in a long one", // run by run, blocks of 1 to 3 ranks
     [](size_t, size_t j, size_t s, util::Rng &) {
         const size_t at = s % 64;
         return static_cast<uint8_t>(at < 1 + (s / 64 + j) % 3 ? 1 + s / 64
                                                                : 0);
     }},
    {"alternating keys", [](size_t, size_t, size_t s, util::Rng &) {
         return static_cast<uint8_t>(s % 2 ? 0xA5 : 0x5A);
     }},
    {"random", [](size_t, size_t, size_t, util::Rng &rng) {
         return static_cast<uint8_t>(rng.below(256));
     }},
    {"suite-like: runs high, random low",
     [](size_t, size_t j, size_t s, util::Rng &rng) {
         if (j < 5)
             return static_cast<uint8_t>(s / 100 + j);
         return static_cast<uint8_t>(j == 5 ? rng.below(4) * 9
                                            : rng.below(256));
     }},
};

TEST(Bytesort, KernelsMatchTheByteAtATimeReference)
{
    std::vector<size_t> sizes;
    for (size_t n = 1; n <= 17; ++n)
        sizes.push_back(n);
    for (size_t n : {255, 4095, 4096, 4097, 65539})
        sizes.push_back(n);
    for (const auto &[name, shape] : kShapes) {
        for (size_t n : sizes) {
            util::Rng rng(n);
            // Exactly 8n bytes and n words: a word access past the
            // end is an ASan report.
            std::vector<uint8_t> planes(8 * n);
            for (size_t j = 0; j < 8; ++j)
                for (size_t s = 0; s < n; ++s)
                    planes[j * n + s] = shape(n, j, s, rng);
            const std::vector<uint64_t> addrs = ref::inverse(planes, n);
            ASSERT_EQ(inverse(planes, n), addrs) << name << ", n " << n;
            ASSERT_EQ(forward(addrs), planes) << name << ", n " << n;
            ASSERT_EQ(ref::forward(addrs), planes) << name << ", n " << n;
        }
    }
}

TEST(Bytesort, EmptyBuffer)
{
    EXPECT_TRUE(forward({}).empty());
    EXPECT_TRUE(inverse({}, 0).empty());
}

TEST(Bytesort, SingleAddress)
{
    uint64_t a = 0x0123456789ABCDEFull;
    auto planes = forward({a});
    // MSB plane first.
    EXPECT_EQ(planes,
              (std::vector<uint8_t>{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB,
                                    0xCD, 0xEF}));
    EXPECT_EQ(inverse(planes, 1), std::vector<uint64_t>{a});
}

TEST(Bytesort, PaperSection41Example)
{
    // §4.1: F200,F201,A100,F202,F203,A101,... — after emitting the
    // high-order plane and sorting, the low-order plane groups the A1
    // region before the F2 region. We model the 16-bit example with the
    // values in the two low bytes of 64-bit addresses.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 128; ++i) {
        addrs.push_back(0xF200 + 2 * i);
        addrs.push_back(0xF200 + 2 * i + 1);
        if (i < 128)
            addrs.push_back(0xA100 + i);
    }
    auto planes = forward(addrs);
    size_t n = addrs.size();

    // Plane 6 (second-lowest byte) is emitted in the order produced by
    // sorting on planes 0..5, which are all zero — i.e. original order:
    // the periodic F2,F2,A1 pattern.
    const uint8_t *plane6 = planes.data() + 6 * n;
    EXPECT_EQ(plane6[0], 0xF2);
    EXPECT_EQ(plane6[1], 0xF2);
    EXPECT_EQ(plane6[2], 0xA1);
    EXPECT_EQ(plane6[3], 0xF2);

    // Plane 7 (lowest byte) is emitted after sorting by plane 6: all
    // A1-region offsets (ascending 00..7F) then all F2 offsets.
    const uint8_t *plane7 = planes.data() + 7 * n;
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(plane7[i], i) << "A1 region offset " << i;
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(plane7[128 + i], i) << "F2 region offset " << i;

    EXPECT_EQ(inverse(planes, n), addrs);
}

TEST(Bytesort, Figure1Example)
{
    // Figure 1: sixteen 32-bit addresses; we embed them in the low 32
    // bits. The original trace alternates a 00-region stream and an
    // FF-region stream.
    std::vector<uint64_t> addrs = {
        0x00000000, 0xFF000007, 0x0001C000, 0xFF000006, 0x00018000,
        0xFF000005, 0x00014000, 0xFF000004, 0x00010000, 0xFF000003,
        0x0000C000, 0xFF000002, 0x00008000, 0xFF000001, 0x00004000,
        0xFF000000,
    };
    size_t n = addrs.size();
    auto planes = forward(addrs);

    // Plane 4 (byte 3 of the 32-bit value) in original order:
    // alternating 00 / FF.
    const uint8_t *p4 = planes.data() + 4 * n;
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(p4[i], i % 2 ? 0xFF : 0x00);

    // Each plane is re-sorted before the next is emitted, so the final
    // plane's order is keyed primarily by the *previous* plane (the
    // most recent stable sort wins). The FF-region addresses all share
    // bytes 1..3, so they stay contiguous and keep their original
    // relative order (stability): their low bytes appear as the run
    // 07,06,...,00 somewhere in the final plane — regions grouped, as
    // in Figure 1's fourth column.
    const uint8_t *p7 = planes.data() + 7 * n;
    std::vector<uint8_t> expected_run{7, 6, 5, 4, 3, 2, 1, 0};
    bool found = false;
    for (size_t start = 0; start + 8 <= n && !found; ++start) {
        found = std::equal(expected_run.begin(), expected_run.end(),
                           p7 + start);
    }
    EXPECT_TRUE(found) << "FF-region run not grouped in final plane";

    EXPECT_EQ(inverse(planes, n), addrs);
}

TEST(Unshuffle, PlanesKeepSequenceOrder)
{
    std::vector<uint64_t> addrs = {0x1122334455667788ull,
                                   0xAABBCCDDEEFF0011ull};
    std::vector<uint8_t> planes(16);
    core::unshuffleForward(addrs.data(), 2, planes.data());
    EXPECT_EQ(planes[0], 0x11);
    EXPECT_EQ(planes[1], 0xAA); // plane 0 = MSBs in order
    EXPECT_EQ(planes[14], 0x88);
    EXPECT_EQ(planes[15], 0x11); // plane 7 = LSBs in order
    std::vector<uint64_t> back(2);
    core::unshuffleInverse(planes.data(), 2, back.data());
    EXPECT_EQ(back, addrs);
}

class TransformRoundTrip
    : public testing::TestWithParam<std::pair<core::Transform, size_t>>
{
};

TEST_P(TransformRoundTrip, StreamingRandomAddresses)
{
    auto [transform, buffer] = GetParam();
    util::Rng rng(buffer * 3 + static_cast<int>(transform));
    // Lengths around buffer boundaries, including a partial final
    // buffer and an exact multiple.
    for (size_t len : {size_t(0), size_t(1), buffer - 1, buffer,
                       buffer + 1, 3 * buffer, 3 * buffer + 7}) {
        std::vector<uint64_t> addrs(len);
        for (auto &a : addrs)
            a = rng.next() >> rng.below(40);

        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        core::TransformEncoder enc(transform, buffer, sink);
        for (uint64_t a : addrs)
            enc.code(a);
        enc.finish();
        EXPECT_EQ(enc.count(), len);

        util::MemorySource src(out);
        core::TransformDecoder dec(transform, src);
        std::vector<uint64_t> back;
        uint64_t v;
        while (dec.decode(&v))
            back.push_back(v);
        EXPECT_EQ(back, addrs) << "len " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TransformRoundTrip,
    testing::Values(std::pair{core::Transform::None, size_t(64)},
                    std::pair{core::Transform::Unshuffle, size_t(64)},
                    std::pair{core::Transform::Delta, size_t(64)},
                    std::pair{core::Transform::Bytesort, size_t(64)},
                    std::pair{core::Transform::Bytesort, size_t(1000)},
                    std::pair{core::Transform::Bytesort, size_t(4096)}));

TEST(Bytesort, SortingIsStablePerPlane)
{
    // Addresses sharing all high bytes must keep their relative order
    // in every plane (stability makes the transform reversible).
    std::vector<uint64_t> addrs;
    util::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        addrs.push_back(0xAB0000 | rng.below(256));
    auto planes = forward(addrs);
    EXPECT_EQ(inverse(planes, addrs.size()), addrs);
}

TEST(Bytesort, GroupsRegionsInLaterPlanes)
{
    // Two interleaved regions: after the transform, the low plane must
    // consist of two sorted-by-region runs, not an interleaving.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 256; ++i) {
        addrs.push_back(0x11000000ull + i);
        addrs.push_back(0x22000000ull + i);
    }
    size_t n = addrs.size();
    auto planes = forward(addrs);
    const uint8_t *low = planes.data() + 7 * n;
    // First 256 low bytes belong to region 0x11 (ascending), next 256
    // to region 0x22 (ascending).
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(low[i], i);
        EXPECT_EQ(low[256 + i], i);
    }
}

TEST(Bytesort, SixMsbZeroBlockAddressesSupported)
{
    // Cache-filtered block addresses have their 6 MSBs null; the paper
    // notes those bits can carry tags. Verify both work.
    std::vector<uint64_t> addrs;
    util::Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        uint64_t block = rng.next() >> 6; // top 6 bits zero
        addrs.push_back(block);
        addrs.push_back(block | (0x2Aull << 58)); // tagged variant
    }
    auto planes = forward(addrs);
    EXPECT_EQ(inverse(planes, addrs.size()), addrs);
}

} // namespace
} // namespace atc

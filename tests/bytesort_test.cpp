/**
 * @file
 * Tests for the bytesort transformation — including the two worked
 * examples from the paper (§4.1 and Figure 1).
 */

#include <gtest/gtest.h>

#include <algorithm>

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

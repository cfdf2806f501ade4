/**
 * @file
 * Test helpers that edit the frames of "store"-codec streams, whose
 * payloads are their raw bytes: where a frame's payload starts, and how
 * to make the frame index's CRC-32s agree with patched payloads, so a
 * crafted field passes the frame check and reaches the layers behind
 * it.
 */

#ifndef ATC_TESTS_STORE_FRAMES_HPP_
#define ATC_TESTS_STORE_FRAMES_HPP_

#include <cstdint>
#include <vector>

#include "compress/stream.hpp"
#include "util/bytestream.hpp"
#include "util/crc32.hpp"

namespace atc::test {

/** @return the scanned layout of in-memory stream @p stream. */
inline comp::StreamLayout
layoutOf(const std::vector<uint8_t> &stream)
{
    util::MemorySource scan(stream.data(), stream.size());
    return comp::scanSeekableStream(scan);
}

/** @return the stream offset of frame @p f's payload. */
inline size_t
payloadStart(const comp::StreamLayout &layout, size_t f)
{
    return static_cast<size_t>(layout.comp_starts[f + 1] -
                               layout.frames[f].comp_size);
}

/** Rewrite the frame index of "store" stream @p stream with the CRC-32
 *  of each payload as it now stands. */
inline void
restampStoreCrcs(std::vector<uint8_t> &stream)
{
    const comp::StreamLayout layout = layoutOf(stream);
    std::vector<uint8_t> index;
    util::VectorSink sink(index);
    util::writeVarint(sink, 0);
    sink.writeByte(1); // index marker
    util::writeVarint(sink, layout.frames.size());
    for (size_t f = 0; f < layout.frames.size(); ++f) {
        const comp::FrameIndexEntry &e = layout.frames[f];
        util::writeVarint(sink, e.raw_size);
        util::writeVarint(sink, e.comp_size);
        util::writeLE<uint32_t>(
            sink, util::crc32(stream.data() + payloadStart(layout, f),
                              static_cast<size_t>(e.comp_size)));
    }
    stream.resize(static_cast<size_t>(layout.comp_starts.back()));
    stream.insert(stream.end(), index.begin(), index.end());
}

} // namespace atc::test

#endif // ATC_TESTS_STORE_FRAMES_HPP_

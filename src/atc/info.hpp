/**
 * @file
 * The container INFO wire format, written by AtcWriter::close() and
 * parsed once per container by AtcIndex.
 *
 * Layout: an uncompressed preamble (magic, version, mode, codec spec)
 * followed by a codec-compressed payload holding the pipeline
 * parameters, the address count and — in lossy mode — the interval
 * trace (chunk/imitate records with byte translations).
 *
 * The version byte stays in the preamble so that containers written by
 * older releases fail loudly: readers accept v8 only. Every stream of
 * a v8 container, the INFO payload included, uses the one framing of
 * compress/stream.hpp (each frame header records the compressed byte
 * length, and the stream ends with a frame index that holds each
 * frame's CRC-32), and every bwc frame carries its start rows (see
 * compress/bwc.hpp). v1 (no CRC trailer), v2 (legacy chunk framing),
 * v3 (a bwc frame with the primary index only), v4 (a legacy-framed
 * INFO payload with no checksum), v5 (one CRC-32 per codec block
 * and per stream, none per frame), v6 (bwc blocks without RLE1) and v7
 * (flat 5-bit Huffman tables, bwc start rows every 2^17 text bytes)
 * are rejected as "unsupported ATC container version".
 */

#ifndef ATC_ATC_INFO_HPP_
#define ATC_ATC_INFO_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "atc/container.hpp"
#include "atc/lossless.hpp"
#include "atc/lossy.hpp"
#include "compress/codec.hpp"

namespace atc::core {

/** Compression mode ('c' vs 'k' in the original tool). */
enum class Mode : uint8_t
{
    Lossless = 0,
    Lossy = 1,
};

/**
 * The one container version writers emit and readers accept. Since v8
 * the bwc and lzh Huffman tables are bzip2's (an in-use map, then
 * delta-coded lengths), and a bwc frame's start rows split its RLE1
 * text into at most 16 chains of at least 2^12 bytes. Since v7 a bwc
 * block is RLE1-coded before its BWT, and its frame opens with the
 * RLE1 text's length. v6 keeps a CRC-32 per frame in each stream's
 * frame index, and since v5 the INFO payload is framed like a chunk
 * stream.
 */
constexpr uint8_t kContainerVersion = 8;

/** Everything a reader learns from a container's INFO stream. */
struct ContainerInfo
{
    /** Container format version (always kContainerVersion). */
    uint8_t version = kContainerVersion;
    Mode mode = Mode::Lossless;
    /** Canonical codec spec recorded in the preamble. */
    std::string codec_spec;
    /** Transform + codec pipeline (codec holds the canonical spec). */
    LosslessParams pipeline;
    /** Total values in the trace. */
    uint64_t count = 0;

    // Lossy mode only.
    uint64_t interval_len = 0;
    double epsilon = 0.0;
    uint64_t chunk_count = 0;
    std::vector<IntervalRecord> records;
};

/**
 * Serialize and store the INFO stream.
 * @param store   destination container
 * @param codec   configured codec compressing the payload
 * @param mode    container mode
 * @param pipeline transform + codec parameters to persist
 * @param count   total values written
 * @param lossy   lossy parameters; required in lossy mode, else null
 * @param chunks_created number of chunks emitted (lossy mode)
 * @param records interval trace; required in lossy mode, else null
 * @throws util::Error on I/O failure or an over-long codec spec
 */
void writeContainerInfo(ChunkStore &store,
                        const comp::ConfiguredCodec &codec, Mode mode,
                        const LosslessParams &pipeline, uint64_t count,
                        const LossyParams *lossy, uint64_t chunks_created,
                        const std::vector<IntervalRecord> *records);

/**
 * Parse the INFO stream of @p store. Every length it holds is checked
 * against what INFO itself states before anything is sized by it.
 * @throws util::Error on missing/corrupt/mismatched INFO data or a
 *         version other than kContainerVersion
 */
ContainerInfo readContainerInfo(ChunkStore &store);

/**
 * @return the codec *name* of @p spec, used as the chunk-file suffix
 * of directory containers. The spec is validated against the codec
 * registry first, so an unknown codec fails before any directory is
 * created on disk.
 * @throws util::Error on malformed specs or unknown codecs
 */
std::string containerSuffix(const std::string &spec);

/**
 * Auto-detect the chunk-file suffix of a directory container by
 * globbing for `INFO.<suffix>`. With several candidates (containers
 * sharing a directory), the one whose INFO-recorded codec name matches
 * its own suffix wins.
 * @throws util::Error when no unambiguous container is found
 */
std::string detectContainerSuffix(const std::string &dir);

} // namespace atc::core

#endif // ATC_ATC_INFO_HPP_

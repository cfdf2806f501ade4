#include "atc/lossless.hpp"

#include "compress/codec.hpp"

namespace atc::core {

LosslessWriter::LosslessWriter(const LosslessParams &params,
                               util::ByteSink &out,
                               parallel::ThreadPool *pool)
    : out_(out)
{
    comp::ConfiguredCodec cc = comp::makeCodec(params.codec);
    codec_ = cc.codec;
    codec_stage_ = std::make_unique<comp::StreamCompressor>(
        *codec_, out, cc.blockOr(params.codec_block),
        comp::FrameFormat::Seekable, pool);
    transform_ = std::make_unique<TransformEncoder>(
        params.transform, params.buffer_addrs, *codec_stage_, pool);
}

void
LosslessWriter::write(const uint64_t *addrs, size_t n)
{
    transform_->write(addrs, n);
}

void
LosslessWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    transform_->finish();
    codec_stage_->finish();
    // Integrity trailer: CRC-32 of the raw transformed byte stream,
    // after the codec terminator and frame index so frame parsing is
    // unchanged.
    util::writeLE<uint32_t>(out_, codec_stage_->crc());
}

LosslessReader::LosslessReader(const LosslessParams &params,
                               util::ByteSource &in)
    : in_(in)
{
    comp::ConfiguredCodec cc = comp::makeCodec(params.codec);
    codec_ = cc.codec;
    codec_stage_ = std::make_unique<comp::StreamDecompressor>(
        *codec_, in, comp::FrameFormat::Seekable);
    transform_ = std::make_unique<TransformDecoder>(
        params.transform, *codec_stage_, params.buffer_addrs);
}

void
LosslessReader::verifyTrailer()
{
    // The transform terminator must be the last raw bytes: draining the
    // codec stage past it both detects trailing garbage and consumes
    // the codec end-of-stream marker (plus the frame index),
    // positioning in_ at the trailer.
    uint8_t extra;
    ATC_CHECK(codec_stage_->read(&extra, 1) == 0,
              "trailing data after the transform terminator");
    uint8_t trailer[4];
    size_t got = 0;
    while (got < 4) {
        size_t r = in_.read(trailer + got, 4 - got);
        if (r == 0)
            break;
        got += r;
    }
    ATC_CHECK(got == 4, "chunk stream CRC trailer missing or truncated");
    uint32_t stored = static_cast<uint32_t>(trailer[0]) |
                      static_cast<uint32_t>(trailer[1]) << 8 |
                      static_cast<uint32_t>(trailer[2]) << 16 |
                      static_cast<uint32_t>(trailer[3]) << 24;
    ATC_CHECK(stored == codec_stage_->crc(),
              "chunk payload CRC mismatch (corrupt container)");
}

size_t
LosslessReader::read(uint64_t *out, size_t n)
{
    size_t got = transform_->read(out, n);
    if (got == 0 && n > 0 && !verified_) {
        verifyTrailer();
        verified_ = true;
    }
    return got;
}

} // namespace atc::core

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

} // namespace atc::core

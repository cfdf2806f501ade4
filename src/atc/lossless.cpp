#include "atc/lossless.hpp"

#include "compress/codec.hpp"

namespace atc::core {

LosslessWriter::LosslessWriter(const LosslessParams &params,
                               util::ByteSink &out,
                               parallel::ThreadPool *pool)
{
    comp::ConfiguredCodec cc = comp::makeCodec(params.codec);
    codec_ = cc.codec;
    codec_stage_ = std::make_unique<comp::StreamCompressor>(
        *codec_, out, cc.blockOr(params.codec_block), pool);
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
}

} // namespace atc::core

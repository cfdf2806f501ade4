#include "tcgen/tcgen.hpp"

#include "util/status.hpp"

namespace atc::tcg {

PredictorBank::PredictorBank(const TcgenConfig &config)
{
    // Priority order follows the paper's TCgen specification: the
    // first matching slot wins, so stronger predictors come first.
    if (config.dfcm3_ways > 0) {
        predictors_.push_back(std::make_unique<pred::DfcmPredictor>(
            3, config.dfcm3_ways, config.log2_lines));
    }
    if (config.fcm3_ways > 0) {
        predictors_.push_back(std::make_unique<pred::FcmPredictor>(
            3, config.fcm3_ways, config.log2_lines));
    }
    if (config.fcm2_ways > 0) {
        predictors_.push_back(std::make_unique<pred::FcmPredictor>(
            2, config.fcm2_ways, config.log2_lines));
    }
    if (config.fcm1_ways > 0) {
        predictors_.push_back(std::make_unique<pred::FcmPredictor>(
            1, config.fcm1_ways, config.log2_lines));
    }
    for (const auto &p : predictors_)
        total_slots_ += p->ways();
    ATC_CHECK(total_slots_ >= 1, "predictor bank is empty");
    ATC_CHECK(total_slots_ < kTcgenEscape,
              "too many prediction slots for 1-byte codes");
}

void
PredictorBank::predictAll(uint64_t *out) const
{
    int offset = 0;
    for (const auto &p : predictors_) {
        p->predict(out + offset);
        offset += p->ways();
    }
}

void
PredictorBank::updateAll(uint64_t actual)
{
    for (const auto &p : predictors_)
        p->update(actual);
}

uint64_t
PredictorBank::memoryBytes() const
{
    uint64_t total = 0;
    for (const auto &p : predictors_) {
        if (auto *fcm = dynamic_cast<const pred::FcmPredictor *>(p.get()))
            total += fcm->tableBytes();
        else if (auto *dfcm =
                     dynamic_cast<const pred::DfcmPredictor *>(p.get()))
            total += dfcm->tableBytes();
    }
    return total;
}

TcgenEncoder::TcgenEncoder(const TcgenConfig &config,
                           util::ByteSink &code_out,
                           util::ByteSink &data_out)
    : bank_(config), scratch_(bank_.slots()),
      codec_(comp::makeCodec(config.codec)),
      code_stream_(*codec_.codec, code_out,
                   codec_.blockOr(config.codec_block)),
      data_stream_(*codec_.codec, data_out,
                   codec_.blockOr(config.codec_block))
{
}

void
TcgenEncoder::write(const uint64_t *vals, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        uint64_t value = vals[k];
        bank_.predictAll(scratch_.data());
        int hit = -1;
        for (int i = 0; i < bank_.slots(); ++i) {
            if (scratch_[i] == value) {
                hit = i;
                break;
            }
        }
        if (hit >= 0) {
            code_stream_.writeByte(static_cast<uint8_t>(hit));
        } else {
            code_stream_.writeByte(kTcgenEscape);
            util::writeLE<uint64_t>(data_stream_, value);
            ++escapes_;
        }
        bank_.updateAll(value);
        ++count_;
    }
}

void
TcgenEncoder::finish()
{
    code_stream_.finish();
    data_stream_.finish();
}

namespace {

std::vector<uint8_t>
decodeWhole(const TcgenConfig &config, util::ByteSource &src)
{
    comp::ConfiguredCodec codec = comp::makeCodec(config.codec);
    std::vector<uint8_t> bytes = util::readToEnd(src);
    return comp::decompressAll(*codec.codec, bytes.data(), bytes.size());
}

} // namespace

TcgenDecoder::TcgenDecoder(const TcgenConfig &config,
                           util::ByteSource &code_in,
                           util::ByteSource &data_in)
    : bank_(config), scratch_(bank_.slots()),
      code_(decodeWhole(config, code_in)),
      data_(decodeWhole(config, data_in)),
      data_stream_(data_)
{
}

size_t
TcgenDecoder::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n && code_pos_ < code_.size()) {
        uint8_t code = code_[code_pos_++];

        uint64_t value;
        if (code == kTcgenEscape) {
            value = util::readLE<uint64_t>(data_stream_);
        } else {
            ATC_CHECK(code < bank_.slots(), "invalid predictor code");
            bank_.predictAll(scratch_.data());
            value = scratch_[code];
        }
        bank_.updateAll(value);
        out[got++] = value;
    }
    return got;
}

TcgenResult
tcgenCompress(const std::vector<uint64_t> &trace, const TcgenConfig &config)
{
    TcgenResult result;
    util::VectorSink code_sink(result.code_bytes);
    util::VectorSink data_sink(result.data_bytes);
    TcgenEncoder enc(config, code_sink, data_sink);
    enc.write(trace.data(), trace.size());
    enc.finish();
    return result;
}

std::vector<uint64_t>
tcgenDecompress(const TcgenResult &compressed, const TcgenConfig &config)
{
    util::MemorySource code_src(compressed.code_bytes);
    util::MemorySource data_src(compressed.data_bytes);
    TcgenDecoder dec(config, code_src, data_src);
    std::vector<uint64_t> out;
    uint64_t v;
    while (dec.decode(&v))
        out.push_back(v);
    return out;
}

} // namespace atc::tcg

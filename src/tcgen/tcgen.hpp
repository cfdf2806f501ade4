/**
 * @file
 * TCgen/VPC-style predictor-based trace compressor — the paper's
 * lossless baseline.
 *
 * Implements the compressor the paper specifies via TCgen:
 * "64-Bit Field 1: DFCM3[2], FCM3[3], FCM2[3], FCM1[3]" with a bzip2
 * back end. Coding follows the VPC scheme: if any prediction slot
 * matches the next value, emit that slot's id (1 byte) to the *code
 * stream*; otherwise emit an escape byte to the code stream and the
 * raw value (8 bytes) to the *data stream*. Both streams then go
 * through a byte-level codec, framed as every ATC stream is (see
 * compress/stream.hpp), so each carries its frame index with a CRC-32
 * per frame.
 * The decompressor maintains an identical predictor bank, so the
 * prediction slots resolve to the same values.
 */

#ifndef ATC_TCGEN_TCGEN_HPP_
#define ATC_TCGEN_TCGEN_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/stream.hpp"
#include "predict/value_predictors.hpp"
#include "trace/pipeline.hpp"

namespace atc::tcg {

/** Predictor-bank and back-end configuration. */
struct TcgenConfig
{
    int dfcm3_ways = 2;
    int fcm3_ways = 3;
    int fcm2_ways = 3;
    int fcm1_ways = 3;
    /** log2 of table lines per predictor (paper: 2^20 lines). */
    int log2_lines = 20;
    /** Back-end codec spec (see comp::CodecSpec). */
    std::string codec = "bwc";
    /** Back-end block size; a `block=` spec parameter overrides this. */
    size_t codec_block = comp::kDefaultBlockSize;
};

/** Shared predictor bank (identical on both sides). */
class PredictorBank
{
  public:
    explicit PredictorBank(const TcgenConfig &config);

    /** @return total prediction slots across all predictors. */
    int slots() const { return total_slots_; }

    /** Fill @p out with slots() candidate predictions. */
    void predictAll(uint64_t *out) const;

    /** Update every predictor with the actual value. */
    void updateAll(uint64_t actual);

    /** @return approximate table memory in bytes. */
    uint64_t memoryBytes() const;

  private:
    std::vector<std::unique_ptr<pred::MultiPredictor>> predictors_;
    int total_slots_ = 0;
};

/** Escape byte marking an unpredicted value in the code stream. */
constexpr uint8_t kTcgenEscape = 0xFF;

/** Streaming compressor writing code and data streams to two sinks. */
class TcgenEncoder : public trace::TraceSink
{
  public:
    /**
     * @param config   predictor and codec configuration
     * @param code_out sink for the compressed code stream
     * @param data_out sink for the compressed escape-value stream
     */
    TcgenEncoder(const TcgenConfig &config, util::ByteSink &code_out,
                 util::ByteSink &data_out);

    /** Compress a batch of 64-bit values. */
    void write(const uint64_t *vals, size_t n) override;

    /** Compress one 64-bit value. */
    void code(uint64_t value) { write(&value, 1); }

    /** Flush both streams; call exactly once. */
    void finish();

    /** TraceSink finalization: flushes both streams. */
    void close() override { finish(); }

    /** @return values coded so far. */
    uint64_t count() const { return count_; }

    /** @return values that required an escape. */
    uint64_t escapes() const { return escapes_; }

    /** @return predictor-bank memory in bytes. */
    uint64_t memoryBytes() const { return bank_.memoryBytes(); }

  private:
    PredictorBank bank_;
    std::vector<uint64_t> scratch_;
    comp::ConfiguredCodec codec_;
    comp::StreamCompressor code_stream_;
    comp::StreamCompressor data_stream_;
    uint64_t count_ = 0;
    uint64_t escapes_ = 0;
};

/** Decompressor reading the two streams back. */
class TcgenDecoder : public trace::TraceSource
{
  public:
    /**
     * Read both sources to their end and decode each whole, checking
     * its frame index and every frame's CRC-32; values are then served
     * from memory.
     * @param config  configuration used to compress
     * @param code_in compressed code stream
     * @param data_in compressed escape-value stream
     * @throws util::Error on a truncated or corrupt stream
     */
    TcgenDecoder(const TcgenConfig &config, util::ByteSource &code_in,
                 util::ByteSource &data_in);

    /** Not copyable: data_stream_ reads data_ in place. */
    TcgenDecoder(const TcgenDecoder &) = delete;
    TcgenDecoder &operator=(const TcgenDecoder &) = delete;

    /**
     * Decompress up to @p n values.
     * @return values produced; 0 means end of trace
     */
    size_t read(uint64_t *out, size_t n) override;

    /**
     * Decompress the next value.
     * @param out receives the value
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

  private:
    PredictorBank bank_;
    std::vector<uint64_t> scratch_;
    std::vector<uint8_t> code_;
    std::vector<uint8_t> data_;
    size_t code_pos_ = 0;
    util::MemorySource data_stream_;
};

/** Result of whole-trace compression. */
struct TcgenResult
{
    std::vector<uint8_t> code_bytes;
    std::vector<uint8_t> data_bytes;

    /** @return total compressed size. */
    uint64_t
    totalBytes() const
    {
        return code_bytes.size() + data_bytes.size();
    }
};

/** One-shot convenience: compress a whole trace. */
TcgenResult tcgenCompress(const std::vector<uint64_t> &trace,
                          const TcgenConfig &config = TcgenConfig());

/** One-shot convenience: decompress a whole trace. */
std::vector<uint64_t> tcgenDecompress(const TcgenResult &compressed,
                                      const TcgenConfig &config =
                                          TcgenConfig());

} // namespace atc::tcg

#endif // ATC_TCGEN_TCGEN_HPP_

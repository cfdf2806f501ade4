/**
 * @file
 * Process-wide observability: a registry of named counters, gauges,
 * and log2-bucketed latency histograms, designed so that record sites
 * on hot paths cost a relaxed atomic add (or nothing at all).
 *
 * One kill switch: `obs::setEnabled(false)` makes record sites return
 * after one relaxed atomic load; timers skip their clock reads.
 *
 * Counters shard their cells across cache-line-padded atomics indexed
 * by a per-thread slot, so concurrent increments from pool workers
 * never bounce one line. Histograms shard the same way; `record()` is
 * a relaxed add into a log2 bucket (bucket b holds values in
 * [2^(b-1), 2^b), bucket 0 holds zero). `Registry::snapshot()` merges
 * shards into plain structs; readers never block writers.
 *
 * Handles returned by `counter()/gauge()/histogram()` are stable for
 * the registry's lifetime — hot sites cache them in function-local
 * statics and never touch the name map again.
 */
#ifndef ATC_OBS_METRICS_HPP
#define ATC_OBS_METRICS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atc::obs {

/// What one thread's record sites have done with recording on: clock
/// reads (each timer reads the clock at its start and its stop),
/// counter and gauge adds, and histogram records. What metrics cost a
/// piece of work on one thread is these counts, taken before and after
/// it, times each operation's unit cost; bench/parallel_throughput's
/// obs_overhead row measures it that way.
struct RecordTally {
    uint64_t clock_reads = 0;
    uint64_t adds = 0;
    uint64_t records = 0;
};

namespace detail {
extern std::atomic<bool> g_enabled;
inline thread_local RecordTally t_tally;
}  // namespace detail

/// This thread's record operations so far.
inline RecordTally
threadTally()
{
    return detail::t_tally;
}

/// Runtime master switch; true by default. Record sites check it with
/// one relaxed load.
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic nanoseconds; 0 when recording is off so callers can use
/// "stamp != 0" as the was-enabled-at-start test.
inline uint64_t
nowNs()
{
    if (!enabled())
        return 0;
    ++detail::t_tally.clock_reads;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace detail {

inline constexpr size_t kShards = 16;

struct alignas(64) PaddedCell {
    std::atomic<int64_t> v{0};
};

/// Stable small integer per thread, used to pick a shard. Threads are
/// striped round-robin so a pool of N workers spreads over the shards
/// even when N > kShards.
size_t threadSlot();

}  // namespace detail

/// Monotonic (by convention) event/byte/micros counter.
class Counter {
  public:
    void add(int64_t n)
    {
        if (!enabled())
            return;
        ++detail::t_tally.adds;
        cells_[detail::threadSlot() % detail::kShards].v.fetch_add(
            n, std::memory_order_relaxed);
    }
    void inc() { add(1); }

    /// Merged value; approximate while writers are live (each shard is
    /// read with a relaxed load).
    int64_t value() const
    {
        int64_t total = 0;
        for (const auto &c : cells_)
            total += c.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    detail::PaddedCell cells_[detail::kShards];
};

/// Instantaneous level (queue depth, inflight ops). Unsharded: gauges
/// move at admission-control frequency, not per-record frequency.
class Gauge {
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t n)
    {
        if (!enabled())
            return;
        ++detail::t_tally.adds;
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    void inc() { add(1); }
    void dec() { add(-1); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram of non-negative values (we use micros).
/// 65 buckets: bucket 0 holds exactly 0, bucket b>=1 holds
/// [2^(b-1), 2^b). record() is lock-free: one relaxed add into the
/// bucket plus count/sum, all on this thread's shard.
class Histogram {
  public:
    static constexpr size_t kBuckets = 65;

    static size_t bucketOf(uint64_t v);
    /// Inclusive lower bound of bucket b.
    static uint64_t bucketLow(size_t b);

    void record(uint64_t v)
    {
        if (!enabled())
            return;
        ++detail::t_tally.records;
        Shard &s = shards_[detail::threadSlot() % kHistShards];
        s.buckets[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        s.count.fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(static_cast<int64_t>(v),
                        std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    // Fewer shards than Counter: each shard is ~67 cache lines, and
    // record sites are already spread across the bucket array.
    static constexpr size_t kHistShards = 4;
    struct Shard {
        std::atomic<uint64_t> buckets[kBuckets]{};
        alignas(64) std::atomic<uint64_t> count{0};
        std::atomic<int64_t> sum{0};
    };
    Shard shards_[kHistShards];
};

/// Merged histogram state at snapshot time.
struct HistogramValue {
    uint64_t count = 0;
    int64_t sum = 0;
    std::vector<uint64_t> buckets;  // kBuckets entries

    /// Approximate quantile (q in [0,1]) from the bucket boundaries;
    /// returns the lower bound of the bucket holding the q-th value.
    uint64_t quantile(double q) const;
};

/// Point-in-time merged view of a registry. Plain data, safe to keep.
struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramValue> histograms;

    bool empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
    /// Counter (or gauge) value by name, 0 when absent.
    int64_t value(const std::string &name) const;
    /// Histogram sum by name, 0 when absent.
    int64_t histSum(const std::string &name) const;
    uint64_t histCount(const std::string &name) const;

    /**
     * Difference of two snapshots of one registry: every counter and
     * histogram count/sum/bucket of *this minus its value in
     * @p earlier (absent-in-earlier means unchanged). Gauges keep
     * their current level — deltas of instantaneous values are
     * meaningless. This is how a bounded piece of work (a sampled
     * window sweep, one bench section) is attributed its share of the
     * process-wide counters, e.g. the study's decoded-bytes
     * accounting over codec.decode.raw_bytes.
     */
    Snapshot since(const Snapshot &earlier) const;
};

/// Named-metric registry. `global()` is the process instance every
/// instrumented subsystem records into; standalone instances exist
/// for tests. Lookup takes a mutex — callers cache the returned
/// reference (stable for the registry's lifetime; metrics are never
/// removed).
class Registry {
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /// Merge every shard into plain structs. Empty when observability
    /// is disabled (either switch): disabled means "not observed".
    Snapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    // Heap-allocated cells: handed-out references survive later
    // registrations growing the vectors.
    std::map<std::string, Counter *> counter_names_;
    std::map<std::string, Gauge *> gauge_names_;
    std::map<std::string, Histogram *> hist_names_;
    std::vector<std::unique_ptr<Counter>> counters_;
    std::vector<std::unique_ptr<Gauge>> gauges_;
    std::vector<std::unique_ptr<Histogram>> hists_;
};

/// RAII: adds elapsed microseconds to a Counter (aggregate stage
/// time). No clock reads when disabled.
class StageTimer {
  public:
    explicit StageTimer(Counter &c) : c_(c), t0_(nowNs()) {}
    ~StageTimer() { stop(); }
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;
    /// Record early (before other work the caller doesn't want timed).
    void stop()
    {
        if (t0_ == 0)
            return;
        c_.add(static_cast<int64_t>((nowNs() - t0_) / 1000));
        t0_ = 0;
    }

  private:
    Counter &c_;
    uint64_t t0_;
};

/// RAII: records elapsed microseconds into a Histogram.
class LatencyTimer {
  public:
    explicit LatencyTimer(Histogram &h) : h_(h), t0_(nowNs()) {}
    ~LatencyTimer() { stop(); }
    LatencyTimer(const LatencyTimer &) = delete;
    LatencyTimer &operator=(const LatencyTimer &) = delete;
    void stop()
    {
        if (t0_ == 0)
            return;
        h_.record((nowNs() - t0_) / 1000);
        t0_ = 0;
    }

  private:
    Histogram &h_;
    uint64_t t0_;
};

/// Text encoding shared by the serve METRICS op, `atcclient metrics`,
/// and `atcinfo --metrics`. First line is `atc_metrics 1`; every
/// following line is `<key> <int64>`, sorted by key. Histograms
/// flatten to `<name>.count`, `<name>.sum`, and one
/// `<name>.bucket<i>` per non-empty bucket.
std::string snapshotToText(const Snapshot &snap);

/// Inverse of snapshotToText into a flat key->value map. Returns
/// false on a malformed header or line (flattened histogram keys are
/// not re-nested).
bool parseMetricsText(const std::string &text,
                      std::map<std::string, int64_t> &out);

/// Same flattening as the text form, as a single JSON object
/// `{"atc_metrics": 1, "<key>": <value>, ...}` — the `--metrics-json`
/// payload.
std::string snapshotToJson(const Snapshot &snap);

/// Dump the global registry's snapshot as JSON to @p path (the
/// `--metrics-json` implementation shared by the CLI tools).
/// @return false when the file cannot be written.
bool writeMetricsJson(const std::string &path);

}  // namespace atc::obs

#endif  // ATC_OBS_METRICS_HPP

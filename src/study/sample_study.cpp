#include "study/sample_study.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>

#include "atc/index.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "util/crc32.hpp"

namespace atc::study {
namespace {

using util::Status;
using util::StatusOr;

// Served windows ride single READ_RANGE / SEEK requests, so a window
// must fit the daemon's per-request ceiling (ServeOptions::
// max_range_records) and the SEEK count field.
constexpr uint64_t kMaxServedWindow = 1ull << 22;

struct StudyMetrics
{
    obs::Counter &windows;
    obs::Counter &measured_records;
    obs::Counter &fetched_records;
    obs::Counter &fetch_us;
    obs::Counter &sim_us;

    static StudyMetrics &
    get()
    {
        obs::Registry &r = obs::Registry::global();
        static StudyMetrics m{r.counter("study.windows"),
                              r.counter("study.measured_records"),
                              r.counter("study.fetched_records"),
                              r.counter("study.fetch_us"),
                              r.counter("study.sim_us")};
        return m;
    }
};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<cache::StackSimulator>
makeSims(const StudyOptions &opt)
{
    std::vector<cache::StackSimulator> sims;
    sims.reserve(opt.sets.size());
    for (uint32_t s : opt.sets)
        sims.emplace_back(s, opt.max_ways);
    return sims;
}

Status
checkOptions(const StudyOptions &opt)
{
    if (opt.sets.empty())
        return Status::error("sample study: no cache set counts");
    if (opt.max_ways == 0)
        return Status::error("sample study: max_ways must be >= 1");
    for (uint32_t s : opt.sets)
        if (s == 0 || (s & (s - 1)) != 0)
            return Status::error(
                "sample study: set count must be a power of two");
    return Status();
}

/**
 * Feed one fetched window into fresh per-geometry simulators, fold
 * them into @p merged, and fill @p out's per-window statistics. The
 * warm-up prefix is everything but the last `measure` fetched records,
 * so a short fetch (defensive; plans are validated against the trace
 * length) shrinks the warm-up before it touches the measured body.
 */
void
simulateWindow(const std::vector<uint64_t> &records,
               const SampleWindow &window, const StudyOptions &opt,
               std::vector<cache::StackSimulator> &merged,
               WindowResult &out)
{
    StudyMetrics &sm = StudyMetrics::get();
    obs::StageTimer timer(sm.sim_us);

    out.crc = util::crc32(
        reinterpret_cast<const uint8_t *>(records.data()),
        records.size() * sizeof(uint64_t));

    // Extra leading records (early lossy landing) warm the cache too.
    uint64_t measured = std::min<uint64_t>(window.measure,
                                           records.size());
    size_t warm = records.size() - static_cast<size_t>(measured);

    std::vector<cache::StackSimulator> sims = makeSims(opt);
    for (cache::StackSimulator &sim : sims) {
        sim.setWarmup(true);
        for (size_t i = 0; i < warm; ++i)
            sim.access(records[i] >> opt.block_shift);
        sim.setWarmup(false);
        for (size_t i = warm; i < records.size(); ++i)
            sim.access(records[i] >> opt.block_shift);
    }

    out.miss_ratio.resize(sims.size());
    for (size_t s = 0; s < sims.size(); ++s) {
        out.miss_ratio[s].resize(opt.max_ways);
        for (uint32_t w = 1; w <= opt.max_ways; ++w)
            out.miss_ratio[s][w - 1] = sims[s].missRatio(w);
        merged[s].merge(sims[s]);
    }

    sm.windows.inc();
    sm.measured_records.add(static_cast<int64_t>(records.size() - warm));
    sm.fetched_records.add(static_cast<int64_t>(records.size()));
}

/**
 * Hands one study's window indices out, one at a time, to whichever
 * worker asks next, so a worker whose windows decode cheaply takes
 * more of them instead of idling while another works through a costly
 * stretch of the trace. Every study call owns its own dealer.
 */
class WindowDealer
{
  public:
    explicit WindowDealer(size_t n) : n_(n) {}

    /** @return the next undealt window index, or nullopt once every
     *  window is dealt or the dealer is closed. */
    std::optional<size_t>
    next()
    {
        size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_)
            return std::nullopt;
        return i;
    }

    /** Deal nothing more: a worker failed, so the study has. */
    void close() { next_.store(n_, std::memory_order_relaxed); }

  private:
    const size_t n_;
    std::atomic<size_t> next_{0};
};

/** One local worker: take a window, fetch it, simulate it, until the
 *  dealer runs dry. */
Status
runLocalWorker(const core::AtcIndex &index, const SamplePlan &plan,
               const StudyOptions &opt, WindowDealer &dealer,
               std::vector<cache::StackSimulator> &merged,
               std::vector<WindowResult> &out)
{
    std::unique_ptr<core::AtcCursor> cursor =
        index.cursor();
    std::vector<uint64_t> records;
    while (std::optional<size_t> i = dealer.next()) {
        const SampleWindow &w = plan.windows()[*i];
        WindowResult &res = out[*i];
        res.window = w;
        records.clear();
        {
            StudyMetrics &sm = StudyMetrics::get();
            obs::StageTimer timer(sm.fetch_us);
            if (opt.fetch == Fetch::kRange) {
                res.actual_begin = w.begin;
                Status st = cursor->readRange(w.begin, w.end(), records);
                if (!st.ok())
                    return st;
            } else {
                Status st = cursor->seek(w.begin);
                if (!st.ok())
                    return st;
                res.actual_begin = cursor->tell();
                // A lossy seek lands on the containing interval
                // boundary: the whole window shifts earlier by the
                // landing distance (same record count), exactly what a
                // served SEEK returns — backends stay in parity.
                uint64_t n = w.length();
                records.resize(n);
                size_t got = 0;
                while (got < n) {
                    size_t r = cursor->read(records.data() + got,
                                            static_cast<size_t>(n) - got);
                    if (r == 0)
                        break;
                    got += r;
                }
                records.resize(got);
            }
        }
        simulateWindow(records, w, opt, merged, res);
    }
    return Status();
}

/**
 * One served worker on its own connection: keep up to
 * opt.pipeline_depth requests in flight, refilling each free slot
 * from the dealer, until it runs dry and every reply is in.
 */
Status
runServedWorker(const std::string &host, uint16_t port,
                const std::string &name, const SamplePlan &plan,
                const StudyOptions &opt, WindowDealer &dealer,
                std::vector<cache::StackSimulator> &merged,
                std::vector<WindowResult> &out)
{
    auto client = serve::ServeClient::connect(host, port);
    if (!client.ok())
        return client.status();
    auto remote = client.value().open(name);
    if (!remote.ok())
        return remote.status();
    uint32_t handle = remote.value().handle;

    size_t depth = std::max<size_t>(1, opt.pipeline_depth);
    std::map<uint32_t, size_t> inflight;  // request id -> window index
    StudyMetrics &sm = StudyMetrics::get();

    for (;;) {
        while (inflight.size() < depth) {
            std::optional<size_t> i = dealer.next();
            if (!i)
                break;
            const SampleWindow &w = plan.windows()[*i];
            StatusOr<uint32_t> id =
                opt.fetch == Fetch::kRange
                    ? client.value().sendReadRange(handle, w.begin,
                                                   w.end())
                    : client.value().sendSeekRead(
                          handle, w.begin,
                          static_cast<uint32_t>(w.length()));
            if (!id.ok())
                return id.status();
            inflight.emplace(id.value(), *i);
        }
        if (inflight.empty())
            break;
        serve::ClientResponse resp;
        {
            obs::StageTimer timer(sm.fetch_us);
            Status st = client.value().receive(resp);
            if (!st.ok())
                return st;
        }
        auto it = inflight.find(resp.request_id);
        if (it == inflight.end())
            return Status::error(
                "sample study: served backend returned an unknown "
                "request id");
        size_t idx = it->second;
        inflight.erase(it);
        if (resp.status != serve::Wire::kOk)
            return Status::error("sample study: server error: " +
                                 resp.error);
        const SampleWindow &w = plan.windows()[idx];
        WindowResult &res = out[idx];
        res.window = w;
        res.actual_begin =
            opt.fetch == Fetch::kRange ? w.begin : resp.actual_pos;
        simulateWindow(resp.records, w, opt, merged, res);
    }
    client.value().closeHandle(handle);
    return Status();
}

/**
 * Run @p run(sims, dealer) as min(n, pool size) tasks on the pool
 * (borrowed, or owned and sized to the study), all dealt the @p n
 * windows from one dealer local to this call. Worker-local merged
 * simulators land in @p worker_sims. The first failing worker closes
 * the dealer, so the rest stop taking windows; the first error in
 * task order is returned.
 */
template <typename Run>
Status
fanOut(size_t n, const StudyOptions &opt,
       std::vector<std::vector<cache::StackSimulator>> &worker_sims,
       Run run)
{
    parallel::ThreadPool *pool = opt.pool;
    std::unique_ptr<parallel::ThreadPool> owned;
    if (pool == nullptr) {
        owned = std::make_unique<parallel::ThreadPool>(
            std::min(parallel::resolveThreads(opt.threads), n));
        pool = owned.get();
    }
    size_t workers = std::min(n, std::max<size_t>(1, pool->size()));
    worker_sims.clear();
    for (size_t w = 0; w < workers; ++w)
        worker_sims.push_back(makeSims(opt));

    // Each task borrows run, worker_sims and dealer, and its handle
    // joins it on every way out of this frame, a refused submit
    // included.
    WindowDealer dealer(n);
    std::vector<parallel::Task<Status>> tasks;
    tasks.reserve(workers);
    Status result = util::toStatus([&] {
        for (size_t w = 0; w < workers; ++w)
            tasks.emplace_back(pool, [&run, &worker_sims, &dealer,
                                      w]() -> Status {
                Status st;
                try {
                    st = run(worker_sims[w], dealer);
                } catch (const std::exception &e) {
                    st = Status::error(
                        std::string("sample study worker: ") + e.what());
                }
                if (!st.ok())
                    dealer.close();
                return st;
            });
    });
    if (!result.ok())
        dealer.close();  // a refused submit: the study has failed
    for (parallel::Task<Status> &task : tasks) {
        const Status &st = task.get();
        if (!st.ok() && result.ok())
            result = st;
    }
    return result;
}

/** Shared tail: fold worker simulators + plan metadata into a result. */
void
finishResult(const SamplePlan &plan, const StudyOptions &opt,
             std::vector<std::vector<cache::StackSimulator>> &worker_sims,
             StudyResult &result)
{
    result.plan = plan.describe();
    result.sets = opt.sets;
    result.max_ways = opt.max_ways;
    result.merged = makeSims(opt);
    for (std::vector<cache::StackSimulator> &sims : worker_sims)
        for (size_t s = 0; s < sims.size(); ++s)
            result.merged[s].merge(sims[s]);
    result.fetched_records = plan.fetchedRecords();
    result.measured_records = plan.measuredRecords();
}

} // namespace

double
StudyResult::missRatio(size_t sets_idx, uint32_t ways) const
{
    return merged[sets_idx].missRatio(ways);
}

Estimate
StudyResult::estimate(size_t sets_idx, uint32_t ways) const
{
    Estimate e;
    e.ratio = missRatio(sets_idx, ways);
    size_t n = windows.size();
    if (n < 2)
        return e;
    double mean = 0;
    for (const WindowResult &w : windows)
        mean += w.miss_ratio[sets_idx][ways - 1];
    mean /= static_cast<double>(n);
    double var = 0;
    for (const WindowResult &w : windows) {
        double d = w.miss_ratio[sets_idx][ways - 1] - mean;
        var += d * d;
    }
    var /= static_cast<double>(n - 1);
    e.ci95 = 1.96 * std::sqrt(var / static_cast<double>(n));
    return e;
}

uint32_t
StudyResult::windowsCrc() const
{
    util::Crc32 crc;
    for (const WindowResult &w : windows) {
        uint8_t bytes[4];
        std::memcpy(bytes, &w.crc, sizeof bytes);
        crc.update(bytes, sizeof bytes);
    }
    return crc.value();
}

uint32_t
StudyResult::histCrc() const
{
    util::Crc32 crc;
    auto mix = [&crc](uint64_t v) {
        uint8_t bytes[8];
        std::memcpy(bytes, &v, sizeof bytes);
        crc.update(bytes, sizeof bytes);
    };
    for (const cache::StackSimulator &sim : merged) {
        for (uint64_t h : sim.distanceHistogram())
            mix(h);
        mix(sim.coldMisses());
        mix(sim.accesses());
        mix(sim.warmupAccesses());
    }
    return crc.value();
}

double
ReferenceResult::missRatio(size_t sets_idx, uint32_t ways) const
{
    return merged[sets_idx].missRatio(ways);
}

StatusOr<StudyResult>
runSampleStudy(std::shared_ptr<const core::AtcIndex> index,
               const SamplePlan &plan, const StudyOptions &opt)
{
    Status ok = checkOptions(opt);
    if (!ok.ok())
        return ok;
    if (plan.windows().empty())
        return Status::error("sample study: the plan has no windows");
    if (index == nullptr)
        return Status::error("sample study: no index");

    StudyResult result;
    result.windows.resize(plan.windows().size());

    obs::Snapshot before = obs::Registry::global().snapshot();
    double t0 = nowSeconds();

    std::vector<std::vector<cache::StackSimulator>> worker_sims;
    Status st = fanOut(
        plan.windows().size(), opt, worker_sims,
        [&](std::vector<cache::StackSimulator> &sims,
            WindowDealer &dealer) {
            return runLocalWorker(*index, plan, opt, dealer, sims,
                                  result.windows);
        });
    if (!st.ok())
        return st;

    result.seconds = nowSeconds() - t0;
    if (obs::enabled()) {
        obs::Snapshot delta =
            obs::Registry::global().snapshot().since(before);
        result.decoded_bytes = delta.value("codec.decode.raw_bytes");
        result.decoded_frames = delta.value("codec.decode.frames");
    }
    finishResult(plan, opt, worker_sims, result);
    return result;
}

StatusOr<StudyResult>
runSampleStudyServed(const std::string &host, uint16_t port,
                     const std::string &name, const SamplePlan &plan,
                     const StudyOptions &opt)
{
    Status ok = checkOptions(opt);
    if (!ok.ok())
        return ok;
    if (plan.windows().empty())
        return Status::error("sample study: the plan has no windows");
    for (const SampleWindow &w : plan.windows())
        if (w.length() > kMaxServedWindow)
            return Status::error(
                "sample study: window of " +
                std::to_string(w.length()) +
                " records exceeds the served per-request ceiling (" +
                std::to_string(kMaxServedWindow) +
                "); use shorter windows");

    // Control connection: METRICS deltas bracket the worker traffic.
    auto control = serve::ServeClient::connect(host, port);
    if (!control.ok())
        return control.status();
    auto metrics_before = control.value().metricsText();

    StudyResult result;
    result.windows.resize(plan.windows().size());
    double t0 = nowSeconds();

    std::vector<std::vector<cache::StackSimulator>> worker_sims;
    Status st = fanOut(
        plan.windows().size(), opt, worker_sims,
        [&](std::vector<cache::StackSimulator> &sims,
            WindowDealer &dealer) {
            return runServedWorker(host, port, name, plan, opt, dealer,
                                   sims, result.windows);
        });
    if (!st.ok())
        return st;

    result.seconds = nowSeconds() - t0;
    auto metrics_after = control.value().metricsText();
    if (metrics_before.ok() && metrics_after.ok()) {
        std::map<std::string, int64_t> m0, m1;
        if (obs::parseMetricsText(metrics_before.value(), m0) &&
            obs::parseMetricsText(metrics_after.value(), m1) &&
            m1.count("codec.decode.raw_bytes") != 0) {
            auto delta = [&m0, &m1](const char *key) {
                auto it1 = m1.find(key);
                if (it1 == m1.end())
                    return int64_t{0};
                auto it0 = m0.find(key);
                return it1->second -
                       (it0 == m0.end() ? 0 : it0->second);
            };
            result.decoded_bytes = delta("codec.decode.raw_bytes");
            result.decoded_frames = delta("codec.decode.frames");
        }
    }
    finishResult(plan, opt, worker_sims, result);
    return result;
}

StatusOr<ReferenceResult>
runFullReference(std::shared_ptr<const core::AtcIndex> index,
                 const StudyOptions &opt)
{
    Status ok = checkOptions(opt);
    if (!ok.ok())
        return ok;
    if (index == nullptr)
        return Status::error("sample study: no index");

    ReferenceResult result;
    result.sets = opt.sets;
    result.max_ways = opt.max_ways;
    result.merged = makeSims(opt);
    result.records = index->size();

    obs::Snapshot before = obs::Registry::global().snapshot();
    double t0 = nowSeconds();

    std::unique_ptr<core::AtcCursor> cursor =
        index->cursor();
    std::vector<uint64_t> buf(1u << 16);
    for (;;) {
        size_t got = cursor->read(buf.data(), buf.size());
        if (got == 0)
            break;
        for (cache::StackSimulator &sim : result.merged)
            for (size_t i = 0; i < got; ++i)
                sim.access(buf[i] >> opt.block_shift);
    }

    result.seconds = nowSeconds() - t0;
    if (obs::enabled()) {
        obs::Snapshot delta =
            obs::Registry::global().snapshot().since(before);
        result.decoded_bytes = delta.value("codec.decode.raw_bytes");
        result.decoded_frames = delta.value("codec.decode.frames");
    }
    return result;
}

double
worstAbsError(const StudyResult &sampled,
              const ReferenceResult &reference)
{
    double worst = 0;
    for (size_t s = 0; s < sampled.sets.size(); ++s)
        for (uint32_t w = 1; w <= sampled.max_ways; ++w)
            worst = std::max(
                worst, std::fabs(sampled.missRatio(s, w) -
                                 reference.missRatio(s, w)));
    return worst;
}

} // namespace atc::study

/**
 * @file
 * Workload `serve_hot`: an in-process TraceServer serves a lossless
 * container at random-access geometry (64k-record transform buffers)
 * to skewed 1000-record READ_RANGE / SEEK requests whose decoded
 * working set fits the server's block cache. Cursor seek, block-cache
 * hits, the per-request inverse transform, the protocol and queueing
 * dominate; the codec sits almost idle.
 *
 * Threads: the server's I/O thread, kWorkers request workers, and the
 * one generator thread that drives serve/protocol.hpp over ppoll()ed
 * sockets (ServeClient blocks and is confined to one thread, so it
 * cannot keep two connections busy from one thread).
 *
 * Phases: untimed warm-up (closed loop), then kSegments segments of a
 * timed container write, an open loop at kRate requests per second
 * timed from each request's due time, and a closed loop at kConns
 * connections x kDepth requests in flight.
 */

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "atc/index.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace atc;

namespace {

constexpr size_t kPerModel = 1'000'000;
constexpr size_t kBuffer = 1 << 16;          // records per transform buffer
constexpr size_t kCodecBlock = 512 * 1024;   // one frame ~ one buffer
constexpr uint32_t kLen = 1000;              // records per request
constexpr size_t kWorkers = 2;
constexpr size_t kConns = 2;
constexpr size_t kDepth = 4; // closed loop: in flight per connection
// Open loop, requests/s: a fifth of the ~480/s the 2 workers saturate
// at, so that the steal time of a shared host (10-40% of busy time
// measured here) slows requests without tipping the queue into a
// backlog.
constexpr double kRate = 100;
constexpr size_t kMinOpen = 1000; // p99 needs >= 1000 requests
// Shares of --seconds spent in the open and the closed loop; the
// timed container writes (~1 s each) take the rest. The open loop's
// p99 needs the most samples. The timed phases run interleaved in
// kSegments segments (write, open-loop part, closed-loop slice), and
// each figure is a median or percentile over all segments, so that a
// burst of host steal time moves one segment of every figure rather
// than the whole of one.
constexpr double kOpenShare = 0.6;
constexpr double kClosedShare = 0.25;
constexpr int kSegments = 4;
constexpr size_t kWarmup = 1500;
constexpr size_t kAuditEvery = 16;
// A request unanswered this long means a hung server: fail the run
// instead of spinning until the caller's timeout.
constexpr uint64_t kStallNs = 10'000'000'000;
const char *const kName = "hot";

/** The seeded request mix: Zipf(1) over transform buffers in a seeded
 *  order, a uniform offset inside the buffer, READ_RANGE or SEEK. */
class Mix
{
  public:
    struct Req
    {
        uint64_t begin;
        bool seek;
    };

    Mix(uint64_t records, uint64_t seed) : records_(records), rng_(seed)
    {
        size_t nbuf = (records + kBuffer - 1) / kBuffer;
        order_.resize(nbuf);
        for (size_t i = 0; i < nbuf; ++i)
            order_[i] = i;
        for (size_t i = nbuf; i > 1; --i)
            std::swap(order_[i - 1], order_[rng_.below(i)]);
        double sum = 0;
        for (size_t r = 0; r < nbuf; ++r)
            cdf_.push_back(sum += 1.0 / double(r + 1));
        for (double &c : cdf_)
            c /= sum;
    }

    Req
    next()
    {
        size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(),
                                       rng_.uniform()) -
                      cdf_.begin();
        uint64_t lo = order_[std::min(rank, order_.size() - 1)] * kBuffer;
        uint64_t hi = std::min<uint64_t>(records_, lo + kBuffer) - kLen;
        return {lo + rng_.below(hi - lo + 1), (rng_.next() & 1) != 0};
    }

  private:
    uint64_t records_;
    util::Rng rng_;
    std::vector<uint64_t> order_;
    std::vector<double> cdf_;
};

/** One protocol connection driven without blocking on responses. */
class Conn
{
  public:
    Conn(uint16_t port, const std::string &name)
    {
        auto s = serve::connectTo("127.0.0.1", port);
        if (!s.ok())
            throw util::Error("connect: " + s.status().message());
        sock_ = s.take();
        serve::Request req;
        req.op = serve::Op::Open;
        req.request_id = 1;
        req.name = name;
        send(req);
        std::vector<uint8_t> payload = readFrameBlocking();
        serve::Response resp;
        if (!serve::parseResponse(payload.data(), payload.size(), resp) ||
            resp.status != serve::Wire::kOk || resp.body.size() < 4)
            throw util::Error("OPEN failed: " + resp.text());
        handle = serve::getU32(resp.body.data());
        if (!sock_.setNonBlocking().ok())
            throw util::Error("cannot make the socket non-blocking");
    }

    void
    send(const serve::Request &req)
    {
        out_.clear();
        serve::encodeRequest(req, out_);
        std::string err;
        if (sock_.writeFull(out_.data(), out_.size(), &err, 5000) !=
            serve::IoResult::kOk)
            throw util::Error("send: " + err);
    }

    /** Read what has arrived; append every complete response. */
    void
    pump(std::vector<serve::Response> &out)
    {
        uint8_t tmp[1 << 16];
        for (;;) {
            ssize_t n = ::recv(sock_.fd(), tmp, sizeof tmp, 0);
            if (n > 0) {
                in_.insert(in_.end(), tmp, tmp + n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            throw util::Error("connection closed by the server");
        }
        size_t pos = 0;
        while (in_.size() - pos >= 4) {
            uint32_t len = serve::getU32(in_.data() + pos);
            if (in_.size() - pos - 4 < len)
                break;
            serve::Response resp;
            if (!serve::parseResponse(in_.data() + pos + 4, len, resp))
                throw util::Error("malformed response");
            out.push_back(std::move(resp));
            pos += 4 + size_t(len);
        }
        in_.erase(in_.begin(), in_.begin() + pos);
    }

    int fd() const { return sock_.fd(); }

    uint32_t handle = 0;

  private:
    std::vector<uint8_t>
    readFrameBlocking()
    {
        uint8_t len[4];
        std::string err;
        if (sock_.readFull(len, 4, &err, 5000) != serve::IoResult::kOk)
            throw util::Error("read: " + err);
        std::vector<uint8_t> payload(serve::getU32(len));
        if (sock_.readFull(payload.data(), payload.size(), &err, 5000) !=
            serve::IoResult::kOk)
            throw util::Error("read: " + err);
        return payload;
    }

    serve::Socket sock_;
    std::vector<uint8_t> out_, in_;
};

/** A served payload kept for the off-the-clock audit. */
struct Audited
{
    Mix::Req req;
    std::vector<uint64_t> records;
};

/** Issues requests over the connections and collects the responses. */
class LoadGen
{
  public:
    LoadGen(std::vector<Conn> &conns, Mix &mix, Tracer &tr, Report &rep)
        : conns_(conns), mix_(mix), tr_(tr), rep_(rep)
    {}

    /** Open loop: @p n requests due at @p rate per second. */
    std::vector<OpenLoopSample>
    openLoop(size_t n, double rate)
    {
        samples_.clear();
        refill_until_ = 0;
        uint64_t start = nowNs() + 1'000'000;
        size_t i = 0;
        while (i < n || !pending_.empty()) {
            uint64_t now = nowNs();
            while (i < n && due(start, rate, i) <= now) {
                issue(i % conns_.size(), due(start, rate, i));
                ++i;
            }
            // Poll without sleeping: waking a halted vCPU from a timer
            // can take longer than a request costs, which would show up
            // as generator lateness instead of server latency.
            waitFor(0);
        }
        return samples_;
    }

    /** Closed loop for @p seconds; returns completed requests/s. */
    double
    closedLoop(double seconds)
    {
        samples_.clear();
        uint64_t start = nowNs();
        refill_until_ = start + uint64_t(seconds * 1e9);
        for (size_t c = 0; c < conns_.size(); ++c)
            for (size_t d = 0; d < kDepth; ++d)
                issue(c, start);
        while (!pending_.empty())
            waitFor(50'000'000);
        return double(samples_.size()) / since(start);
    }

    /** Closed loop for @p n requests (the untimed warm-up). */
    void
    warm(size_t n)
    {
        samples_.clear();
        refill_until_ = UINT64_MAX;
        for (size_t c = 0; c < conns_.size(); ++c)
            for (size_t d = 0; d < kDepth; ++d)
                issue(c, nowNs());
        while (samples_.size() < n)
            waitFor(50'000'000);
        refill_until_ = 0;
        while (!pending_.empty())
            waitFor(50'000'000);
    }

    std::vector<Audited> audit;
    uint64_t completed = 0;
    uint64_t rejected = 0;

  private:
    struct Pending
    {
        uint64_t due, sent;
        Mix::Req req;
        size_t conn;
    };

    static uint64_t
    due(uint64_t start, double rate, size_t i)
    {
        return uint64_t(dueTime(double(start), rate / 1e9, i));
    }

    void
    issue(size_t c, uint64_t due_ns)
    {
        Mix::Req m = mix_.next();
        serve::Request q;
        q.op = m.seek ? serve::Op::Seek : serve::Op::ReadRange;
        q.request_id = next_id_++;
        q.handle = conns_[c].handle;
        q.begin = m.begin;
        q.end = m.begin + kLen;
        q.count = kLen;
        uint64_t sent = nowNs();
        if (pending_.empty())
            last_progress_ = sent;
        conns_[c].send(q);
        pending_[q.request_id] = {due_ns, sent, m, c};
        ++rep_.attempted;
    }

    void
    waitFor(int64_t ns)
    {
        if (!pending_.empty() && nowNs() - last_progress_ > kStallNs)
            throw util::Error("no response from the server for 10 s");
        std::vector<pollfd> fds;
        for (const Conn &c : conns_)
            fds.push_back({c.fd(), POLLIN, 0});
        timespec ts{time_t(ns / 1'000'000'000), long(ns % 1'000'000'000)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            return;
        for (size_t c = 0; c < conns_.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            responses_.clear();
            conns_[c].pump(responses_);
            for (serve::Response &r : responses_)
                complete(r);
        }
    }

    void
    complete(serve::Response &r)
    {
        uint64_t done = nowNs();
        last_progress_ = done;
        auto it = pending_.find(r.request_id);
        if (it == pending_.end()) {
            rep_.check(false, "response to an unknown request id");
            return;
        }
        Pending p = it->second;
        pending_.erase(it);
        ++completed;
        tr_.add("serve.request", p.sent, done, r.request_id);
        samples_.push_back({double(p.due), double(p.sent), double(done)});
        if (r.status != serve::Wire::kOk) {
            ++rep_.failed;
            rejected += r.status == serve::Wire::kOverloaded;
        } else {
            checkPayload(p.req, r);
        }
        if (done < refill_until_)
            issue(p.conn, done);
    }

    void
    checkPayload(const Mix::Req &m, const serve::Response &r)
    {
        size_t off = m.seek ? 12 : 4;
        const std::vector<uint8_t> &b = r.body;
        bool ok = b.size() >= off &&
                  serve::getU32(b.data() + off - 4) == kLen &&
                  b.size() == off + size_t(kLen) * 8 &&
                  (!m.seek || serve::getU64(b.data()) == m.begin);
        rep_.check(ok, "served payload has the wrong shape");
        if (ok && ++served_ % kAuditEvery == 0) {
            Audited a{m, std::vector<uint64_t>(kLen)};
            std::memcpy(a.records.data(), b.data() + off, size_t(kLen) * 8);
            audit.push_back(std::move(a));
        }
    }

    std::vector<Conn> &conns_;
    Mix &mix_;
    Tracer &tr_;
    Report &rep_;
    std::unordered_map<uint32_t, Pending> pending_;
    std::vector<serve::Response> responses_;
    std::vector<OpenLoopSample> samples_;
    uint32_t next_id_ = 100;
    uint64_t refill_until_ = 0;
    uint64_t last_progress_ = 0; ///< last send into an idle pipe or reply
    uint64_t served_ = 0;
};

int64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

} // namespace

void
runServeHot(const Args &args, Tracer &tr, Report &rep)
{
    serve::ignoreSigpipe();
    const size_t T = hardwareThreads();
    const size_t workers = T >= kWorkers + 2 ? kWorkers : 1;
    const std::string dir = args.work + "/serve_hot.c";

    core::AtcOptions copt;
    copt.mode = core::Mode::Lossless;
    copt.pipeline.buffer_addrs = kBuffer;
    copt.pipeline.codec_block = kCodecBlock;

    // Set-up: inputs, the container, and a started server.
    std::vector<uint64_t> input;
    std::vector<double> setup;
    FilterEvidence ev;
    std::unique_ptr<serve::TraceServer> server;
    for (int i = 0; i < kSetupReps; ++i) {
        Scope s(tr, "bench.setup");
        server.reset();
        uint64_t t0 = nowNs();
        ev = {};
        input = filteredMix(kPerModel, args.seed, tr, ev);
        writeContainer(dir, copt, input, T, tr);
        serve::ServeOptions sopt;
        sopt.threads = workers;
        server = std::make_unique<serve::TraceServer>(sopt);
        util::Status st = server->addContainer(kName, dir);
        if (st.ok()) {
            Scope ss(tr, "serve.start");
            st = server->start();
        }
        if (!st.ok())
            throw util::Error("server: " + st.message());
        setup.push_back(since(t0));
    }
    auto index = server->containerIndex(kName);

    std::vector<Conn> conns;
    for (size_t c = 0; c < kConns; ++c)
        conns.emplace_back(server->port(), kName);
    Mix mix(input.size(), args.seed);
    LoadGen gen(conns, mix, tr, rep);
    {
        Scope s(tr, "bench.warmup");
        gen.warm(kWarmup);
    }

    core::BlockCacheStats cs0 = index->cacheStats();
    int64_t raw0 = counter("codec.decode.raw_bytes");
    int64_t buf0 = counter("atc.transform.decode_buffers");
    uint64_t done0 = gen.completed;
    size_t n_open = std::max(kMinOpen, size_t(kRate * args.seconds *
                                              kOpenShare)) /
                    kSegments;
    std::vector<OpenLoopSample> open;
    std::vector<double> writes, close_s, rps_slices;
    const std::string write_dir = args.work + "/serve_hot.write";
    for (int seg = 0; seg < kSegments; ++seg) {
        writes.push_back(writeRep(write_dir, copt, input, T, close_s, tr));
        {
            Scope s(tr, "bench.open_loop");
            std::vector<OpenLoopSample> part = gen.openLoop(n_open, kRate);
            open.insert(open.end(), part.begin(), part.end());
        }
        Scope s(tr, "bench.closed_loop");
        rps_slices.push_back(
            gen.closedLoop(args.seconds * kClosedShare / kSegments));
    }
    removeDir(write_dir);
    double rps = median(rps_slices);
    core::BlockCacheStats cs1 = index->cacheStats();
    double reqs = double(gen.completed - done0);

    std::vector<double> lat, late;
    for (const OpenLoopSample &o : open) {
        lat.push_back(o.latency() * 1e-6);
        late.push_back(o.lateness() * 1e-6);
    }
    Tail p99 = tailPercentile(lat);
    double p50 = median(lat);
    // The manifest's workload-neutral names; this workload's own names are
    // printed beside them.
    rep.e2e("setup_s", median(setup), "s");
    rep.e2e("write_maddrs", median(writes), "Maddr/s");
    rep.e2e("read_maddrs", rps * kLen / 1e6, "Maddr/s");
    rep.e2e("read_ms", p50, "ms");
    rep.e2e("bpa", double(containerBytes(dir)) * 8 / double(input.size()),
            "bit/addr");
    rep.note("req_p50_ms", p50, "ms");
    // Printed, not in the result JSON: on a shared host it follows the
    // host's steal time (6-48 ms over ten runs), not the program.
    rep.note("req_p99_ms", p99.value, "ms");
    rep.note("req_tail_percentile", p99.q * 100, "pct");
    rep.note("req_tail_samples", double(p99.count), "count");
    rep.note("req_per_s", rps, "1/s");

    // Off the clock: served payloads against direct cursor reads.
    {
        Scope s(tr, "bench.audit");
        auto cur = index->cursor();
        std::vector<uint64_t> direct;
        for (const Audited &a : gen.audit) {
            util::Status st =
                cur->readRange(a.req.begin, a.req.begin + kLen, direct);
            rep.check(st.ok() && direct == a.records,
                      "served payload differs from AtcCursor::readRange");
        }
        rep.check(!gen.audit.empty(), "no served payload was audited");
        rep.note("audited_requests", double(gen.audit.size()), "count");
    }

    rep.layer("cache.filter_maccess",
              double(ev.accesses) / ev.write_s / 1e6, "Maccess/s");
    rep.layer("cache.filter_miss_ratio",
              double(ev.misses) / double(ev.accesses), "ratio");
    uint64_t hits = cs1.hits - cs0.hits;
    uint64_t looks = hits + (cs1.misses - cs0.misses);
    rep.layer("parallel.close_s", median(close_s), "s");
    rep.note("atc.cache.hit_ratio",
              looks ? double(hits) / double(looks) : 0.0, "ratio");
    rep.note("atc.decoded_bytes_per_req",
             double(counter("codec.decode.raw_bytes") - raw0) / reqs, "B");
    rep.note("atc.transform.buffers_per_req",
             double(counter("atc.transform.decode_buffers") - buf0) / reqs,
             "count");
    rep.note("serve.gen_late_ms", tailPercentile(late).value, "ms");
    rep.note("serve.rejected", double(gen.rejected), "count");

    if (tr.on()) {
        // Ping round trip over a separate connection, same thread.
        auto client = serve::ServeClient::connect("127.0.0.1", server->port());
        if (!client.ok())
            throw util::Error("ping client: " + client.status().message());
        serve::ServeClient ping = client.take();
        std::vector<double> pings;
        for (int i = 0; i < 500; ++i) {
            Scope s(tr, "serve.ping");
            uint64_t t0 = nowNs();
            rep.check(ping.ping().ok(), "ping failed");
            pings.push_back(since(t0) * 1e3);
        }
        double ping_ms = median(pings);

        // The served mix, read locally on the same (hot) index.
        Mix local_mix(input.size(), args.seed);
        auto cur = index->cursor();
        std::vector<double> ranges;
        std::vector<uint64_t> out;
        for (size_t i = 0; i < 1000; ++i) {
            Mix::Req m = local_mix.next();
            Scope s(tr, "atc.cursor.read_range");
            uint64_t t0 = nowNs();
            rep.check(cur->readRange(m.begin, m.begin + kLen, out).ok(),
                      "local readRange failed");
            ranges.push_back(since(t0) * 1e3);
        }
        double range_ms = median(ranges);
        rep.note("serve.ping_ms", ping_ms, "ms");
        rep.layer("atc.cursor.range_ms", range_ms, "ms");
        rep.note("serve.queue_ms", p50 - range_ms - ping_ms, "ms");

        std::vector<double> opens;
        for (int i = 0; i < 5; ++i) {
            Scope s(tr, "atc.index.open");
            uint64_t t0 = nowNs();
            rep.check(core::AtcIndex::open(dir).ok(), "index open failed");
            opens.push_back(since(t0) * 1e3);
        }
        rep.layer("atc.index.open_ms", median(opens), "ms");

        reportLayerReplays(input, copt, args.work + "/serve_hot.replay", tr,
                           rep);
    }
    conns.clear();
    server->stop();
    removeDir(dir);
}

} // namespace perfbench

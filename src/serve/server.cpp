#include "serve/server.hpp"

#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace atc::serve {

namespace {

/** Depth of the request pool's queue. Admission parks requests per
 *  session once it fills, so the value bounds server-side queueing
 *  delay, not correctness. */
constexpr size_t kQueueCapacity = 256;

/** Parsed-but-unadmitted requests tolerated per session before the
 *  server stops reading that session's socket (TCP backpressure). */
constexpr size_t kMaxPendingPerClient = 64;

/** Bound on waiting for a client to drain its socket before the
 *  session is declared dead and disconnected. */
constexpr int kWriteTimeoutMs = 30'000;

/** Heavy requests decode records and are subject to admission
 *  control; everything else is bookkeeping. */
bool
isHeavy(Op op)
{
    return op == Op::Seek || op == Op::ReadRange;
}

/** Request-lifecycle metrics on the process registry. Gauges move at
 *  admission/completion frequency; histograms record micros. */
struct ServeObs
{
    obs::Gauge &queue_depth;    ///< requests admitted, not yet picked up
    obs::Gauge &inflight;       ///< heavy requests admitted, unreleased
    obs::Histogram &queue_wait_us; ///< parse -> worker pickup
    obs::Histogram &decode_us;     ///< cursor seek/read inside a worker
    obs::Histogram &write_us;      ///< socket writeFull
};

ServeObs &
serveObs()
{
    auto &r = obs::Registry::global();
    static ServeObs m{
        r.gauge("serve.queue_depth"),
        r.gauge("serve.inflight"),
        r.histogram("serve.queue_wait_us"),
        r.histogram("serve.decode_us"),
        r.histogram("serve.write_us"),
    };
    return m;
}

/** Per-opcode end-to-end latency (parse -> response written). */
obs::Histogram &
reqHist(Op op)
{
    static std::array<obs::Histogram *, kOpCount> hists = [] {
        std::array<obs::Histogram *, kOpCount> a{};
        for (size_t i = 0; i < kOpCount; ++i)
            a[i] = &obs::Registry::global().histogram(
                std::string("serve.req.") +
                opName(static_cast<Op>(i)) + "_us");
        return a;
    }();
    return *hists[static_cast<size_t>(op)];
}

/** Status code of a response frame built by beginResponse (u16 at
 *  payload offset 2, i.e. frame offset 6). */
Wire
frameStatus(const std::vector<uint8_t> &frame)
{
    if (frame.size() < 4 + kHeaderLen)
        return Wire::kOk;
    return static_cast<Wire>(getU16(frame.data() + 6));
}

void
appendStat(std::string &out, const std::string &key, uint64_t value)
{
    out += key;
    out += '=';
    out += std::to_string(value);
    out += '\n';
}

} // namespace

/**
 * Per-connection state. Ownership: the I/O thread's sessions_ map
 * holds one reference; every admitted request holds another, so the
 * socket cannot close under an executing request. Field groups and
 * their guards are annotated below.
 */
struct TraceServer::Session
    : public std::enable_shared_from_this<TraceServer::Session>
{
    explicit Session(Socket s) : sock(std::move(s)) {}

    Socket sock;

    /** Stable session number for log lines (1-based accept order). */
    uint64_t id = 0;

    /** Set once (by either side) when the connection is finished; the
     *  I/O thread sweeps flagged sessions out of the poll set. */
    std::atomic<bool> closed{false};

    // ---- I/O thread only: unparsed input bytes.
    std::vector<uint8_t> inbuf;
    size_t inbuf_consumed = 0;

    // ---- Admission state, guarded by adm_mu (I/O thread admits,
    // workers release budget and re-admit).
    std::mutex adm_mu;
    std::deque<Request> pending;
    uint32_t inflight = 0;
    uint64_t inflight_records = 0;

    // ---- Handle table, guarded by h_mu.
    std::mutex h_mu;
    uint32_t next_handle = 1;
    std::map<uint32_t, std::shared_ptr<Handle>> handles;

    // ---- Response writes serialize here (pipelined requests may
    // complete on several workers at once).
    std::mutex write_mu;

    size_t
    pendingSize()
    {
        std::lock_guard<std::mutex> lock(adm_mu);
        return pending.size();
    }
};

TraceServer::TraceServer(ServeOptions opt) : opt_(opt) {}

TraceServer::~TraceServer()
{
    stop();
}

util::Status
TraceServer::addContainer(const std::string &name,
                          core::ChunkStore &store)
{
    if (started_.load())
        return util::Status::error(
            "containers must be added before start()");
    if (name.empty() || by_name_.count(name))
        return util::Status::error("bad or duplicate container name: " +
                                   name);
    auto container = std::make_unique<Container>();
    container->name = name;
    container->store = &store;
    by_name_[name] = container.get();
    containers_.push_back(std::move(container));
    return util::Status();
}

util::Status
TraceServer::addContainer(const std::string &name, const std::string &dir)
{
    if (started_.load())
        return util::Status::error(
            "containers must be added before start()");
    if (name.empty() || by_name_.count(name))
        return util::Status::error("bad or duplicate container name: " +
                                   name);
    auto container = std::make_unique<Container>();
    container->name = name;
    container->dir = dir;
    by_name_[name] = container.get();
    containers_.push_back(std::move(container));
    return util::Status();
}

util::Status
TraceServer::start()
{
    if (started_.exchange(true))
        return util::Status::error("server already started");
    ignoreSigpipe();

    // Open every registered container now that the final count is
    // known: each index gets an even share of the global decoded-block
    // cache budget. A corrupt container fails start(), not the first
    // request that touches it.
    core::IndexOptions iopt;
    iopt.cache_bytes =
        containers_.empty() ? 0
                            : opt_.cache_bytes / containers_.size();
    for (auto &container : containers_) {
        auto index = container->store
                         ? core::AtcIndex::open(*container->store, iopt)
                         : core::AtcIndex::open(container->dir, iopt);
        if (!index.ok())
            return util::Status::error("container '" + container->name +
                                       "': " +
                                       index.status().message());
        container->index = index.take();
    }

    auto listener = listenLoopback(opt_.port);
    if (!listener.ok())
        return listener.status();
    listener_ = listener.take();
    auto port = boundPort(listener_);
    if (!port.ok())
        return port.status();
    port_ = port.value();

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return util::Status::error(std::string("pipe: ") +
                                   std::strerror(errno));
    wake_rd_ = Socket(pipe_fds[0]);
    wake_wr_ = Socket(pipe_fds[1]);
    util::Status nb = wake_rd_.setNonBlocking();
    if (nb.ok())
        nb = wake_wr_.setNonBlocking();
    if (!nb.ok())
        return nb;

    pool_ = std::make_unique<parallel::ThreadPool>(opt_.threads,
                                                   kQueueCapacity);
    start_tp_ = std::chrono::steady_clock::now();
    io_thread_ = std::thread([this] { ioLoop(); });
    logf(LogLevel::kInfo, "listening port=%u containers=%zu threads=%zu",
         unsigned(port_), containers_.size(), pool_->size());
    return util::Status();
}

void
TraceServer::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_requested_.store(true);
    }
    stop_cv_.notify_all();
    wakeIo();
}

void
TraceServer::wait()
{
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [this] { return stop_requested_.load(); });
}

bool
TraceServer::waitFor(int timeout_ms)
{
    std::unique_lock<std::mutex> lock(stop_mu_);
    return stop_cv_.wait_for(lock,
                             std::chrono::milliseconds(timeout_ms),
                             [this] { return stop_requested_.load(); });
}

void
TraceServer::stop()
{
    requestStop();
    if (stopped_.exchange(true))
        return;
    if (io_thread_.joinable())
        io_thread_.join();
    if (pool_)
        pool_->shutdown();
    // The pool is joined: admitted requests are done, the last session
    // references drop here and the descriptors close.
    sessions_.clear();
    listener_.close();
}

void
TraceServer::wakeIo()
{
    if (!wake_wr_.valid())
        return;
    uint8_t b = 1;
    // Nonblocking; a full pipe already guarantees a pending wakeup.
    ssize_t r = ::write(wake_wr_.fd(), &b, 1);
    (void)r;
}

// ------------------------------------------------------- I/O thread

void
TraceServer::ioLoop()
{
    while (!stop_requested_.load())
        pollOnce();
}

void
TraceServer::pollOnce()
{
    std::vector<struct pollfd> fds;
    std::vector<std::shared_ptr<Session>> polled;
    fds.push_back({wake_rd_.fd(), POLLIN, 0});
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (auto &entry : sessions_) {
        const std::shared_ptr<Session> &session = entry.second;
        if (session->closed.load())
            continue;
        // Backpressure: a session with too many unadmitted requests is
        // not read — the flood backs up into its TCP window instead of
        // this process's memory.
        if (session->pendingSize() >= kMaxPendingPerClient)
            continue;
        fds.push_back({session->sock.fd(), POLLIN, 0});
        polled.push_back(session);
    }

    int r = ::poll(fds.data(), fds.size(), 500);
    if (r < 0 && errno != EINTR)
        return; // transient; loop re-enters
    if (r > 0) {
        if (fds[0].revents & POLLIN) {
            uint8_t drain[256];
            while (::read(wake_rd_.fd(), drain, sizeof(drain)) > 0) {
            }
        }
        if (fds[1].revents & (POLLIN | POLLERR))
            acceptPending();
        for (size_t i = 2; i < fds.size(); ++i)
            if (fds[i].revents != 0)
                readSession(polled[i - 2]);
    }
    admitAll();
    reapSessions();
}

void
TraceServer::acceptPending()
{
    for (;;) {
        auto accepted = acceptConnection(listener_);
        if (!accepted.ok())
            return; // listener broken; poll loop continues
        Socket sock = accepted.take();
        if (!sock.valid())
            return; // drained the backlog
        int fd = sock.fd();
        auto session = std::make_shared<Session>(std::move(sock));
        session->id = counters_.connections_accepted.fetch_add(
                          1, std::memory_order_relaxed) +
                      1;
        logf(LogLevel::kInfo, "session=%llu accepted fd=%d",
             static_cast<unsigned long long>(session->id), fd);
        sessions_.emplace(fd, std::move(session));
        counters_.sessions_active.fetch_add(1,
                                            std::memory_order_relaxed);
    }
}

void
TraceServer::readSession(const std::shared_ptr<Session> &session)
{
    uint8_t buf[64 * 1024];
    for (;;) {
        ssize_t r = ::recv(session->sock.fd(), buf, sizeof(buf), 0);
        if (r > 0) {
            session->inbuf.insert(session->inbuf.end(), buf, buf + r);
            // One read burst may overshoot kMaxPendingPerClient by
            // however many tiny frames fit the burst; the *next* poll
            // pass pauses the socket, so the overshoot is bounded by
            // sizeof(buf) / min-frame-size parsed requests.
            if (static_cast<size_t>(r) < sizeof(buf))
                break;
            continue;
        }
        if (r == 0) { // orderly peer close
            session->closed.store(true);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // ECONNRESET and friends: the peer vanished — a clean
        // disconnect from the server's perspective, not an error.
        session->closed.store(true);
        break;
    }
    if (!session->closed.load())
        parseFrames(session);
}

void
TraceServer::parseFrames(const std::shared_ptr<Session> &session)
{
    std::vector<uint8_t> &inbuf = session->inbuf;
    size_t &pos = session->inbuf_consumed;
    while (!session->closed.load()) {
        if (inbuf.size() - pos < 4)
            break;
        uint32_t len = getU32(inbuf.data() + pos);
        if (len > kMaxRequestPayload) {
            // Framing can no longer be trusted; answer (echoing the
            // request id when the header already arrived) and drop
            // the connection.
            uint32_t id = inbuf.size() - pos >= 4 + kHeaderLen
                              ? getU32(inbuf.data() + pos + 8)
                              : 0;
            std::vector<uint8_t> frame;
            encodeErrorResponse(frame, Op::Ping, Wire::kTooLarge, id,
                                "request frame exceeds " +
                                    std::to_string(kMaxRequestPayload) +
                                    " bytes");
            counters_.protocol_errors.fetch_add(
                1, std::memory_order_relaxed);
            logf(LogLevel::kInfo,
                 "session=%llu protocol_error status=too_large "
                 "frame_len=%u",
                 static_cast<unsigned long long>(session->id), len);
            sendFrame(*session, frame);
            session->closed.store(true);
            break;
        }
        if (inbuf.size() - pos < 4u + len)
            break; // incomplete frame; wait for more bytes
        Request req;
        std::string err;
        Wire verdict =
            parseRequest(inbuf.data() + pos + 4, len, req, err);
        pos += 4u + len;
        req.arrival_ns = obs::nowNs();
        if (verdict != Wire::kOk) {
            std::vector<uint8_t> frame;
            encodeErrorResponse(frame, Op::Ping, verdict,
                                req.request_id, err);
            counters_.protocol_errors.fetch_add(
                1, std::memory_order_relaxed);
            logf(LogLevel::kInfo,
                 "session=%llu protocol_error status=%s detail=\"%s\"",
                 static_cast<unsigned long long>(session->id),
                 wireName(verdict), err.c_str());
            sendFrame(*session, frame);
            // Unknown opcodes inside a well-formed frame are
            // survivable (forward compatibility); bad versions and
            // malformed bodies are not.
            if (verdict != Wire::kUnknownOp)
                session->closed.store(true);
            continue;
        }
        countRequest(req.op);
        // Validate request-level bounds here so admission arithmetic
        // never sees nonsense (underflowed ranges, absurd counts).
        if (req.op == Op::ReadRange && req.begin > req.end) {
            std::vector<uint8_t> frame;
            encodeErrorResponse(frame, req.op, Wire::kOutOfRange,
                                req.request_id,
                                "range begin exceeds end");
            counters_.request_errors.fetch_add(
                1, std::memory_order_relaxed);
            logf(LogLevel::kInfo,
                 "session=%llu op=%s status=out_of_range us=0",
                 static_cast<unsigned long long>(session->id),
                 opName(req.op));
            sendFrame(*session, frame);
            continue;
        }
        if (isHeavy(req.op) && req.records() > opt_.max_range_records) {
            std::vector<uint8_t> frame;
            encodeErrorResponse(
                frame, req.op, Wire::kTooLarge, req.request_id,
                "request asks for " + std::to_string(req.records()) +
                    " records; max_range_records is " +
                    std::to_string(opt_.max_range_records) +
                    " (split the range)");
            counters_.request_errors.fetch_add(
                1, std::memory_order_relaxed);
            logf(LogLevel::kInfo,
                 "session=%llu op=%s status=too_large us=0",
                 static_cast<unsigned long long>(session->id),
                 opName(req.op));
            sendFrame(*session, frame);
            continue;
        }
        bool deferred;
        {
            std::lock_guard<std::mutex> lock(session->adm_mu);
            session->pending.push_back(std::move(req));
            admitLocked(*session);
            deferred = !session->pending.empty();
        }
        if (deferred)
            counters_.admission_deferred.fetch_add(
                1, std::memory_order_relaxed);
    }
    // Compact the consumed prefix (cheap: at most one partial frame
    // plus unread burst remains).
    if (pos > 0) {
        inbuf.erase(inbuf.begin(),
                    inbuf.begin() + static_cast<ptrdiff_t>(pos));
        pos = 0;
    }
}

void
TraceServer::admitLocked(Session &session)
{
    while (!session.pending.empty()) {
        const Request &req = session.pending.front();
        bool heavy = isHeavy(req.op);
        uint64_t rec = req.records();
        if (heavy) {
            if (session.inflight >= opt_.max_inflight_per_client)
                break;
            // A single in-budget request must always be able to run;
            // the records budget only gates *additional* pipelined
            // work on top of it.
            if (session.inflight > 0 &&
                session.inflight_records + rec >
                    opt_.max_inflight_records_per_client)
                break;
        }
        if (!pool_->trySubmit(
                [this, self = session.shared_from_this(), req] {
                    handleRequest(*self, req);
                }))
            break; // pool queue full; retried on next wakeup
        if (heavy) {
            session.inflight += 1;
            session.inflight_records += rec;
            counters_.inflight_heavy.fetch_add(
                1, std::memory_order_relaxed);
            serveObs().inflight.inc();
        }
        serveObs().queue_depth.inc();
        session.pending.pop_front();
    }
}

void
TraceServer::admitAll()
{
    for (auto &entry : sessions_) {
        Session &session = *entry.second;
        if (session.closed.load())
            continue;
        std::lock_guard<std::mutex> lock(session.adm_mu);
        admitLocked(session);
    }
}

void
TraceServer::reapSessions()
{
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second->closed.load()) {
            counters_.disconnects.fetch_add(1,
                                            std::memory_order_relaxed);
            counters_.sessions_active.fetch_sub(
                1, std::memory_order_relaxed);
            logf(LogLevel::kInfo, "session=%llu disconnected",
                 static_cast<unsigned long long>(it->second->id));
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

// ------------------------------------------------------- workers

void
TraceServer::countRequest(Op op)
{
    counters_.requests[static_cast<size_t>(op)].fetch_add(
        1, std::memory_order_relaxed);
}

void
TraceServer::handleRequest(Session &session, const Request &req)
{
    serveObs().queue_depth.dec();
    if (req.arrival_ns != 0) {
        uint64_t now = obs::nowNs();
        if (now != 0)
            serveObs().queue_wait_us.record(
                (now - req.arrival_ns) / 1000);
    }
    std::vector<uint8_t> frame;
    try {
        switch (req.op) {
        case Op::Ping:
            beginResponse(frame, req.op, Wire::kOk, req.request_id);
            finishResponse(frame);
            break;
        case Op::Stat: {
            beginResponse(frame, req.op, Wire::kOk, req.request_id);
            std::string text = statText();
            frame.insert(frame.end(), text.begin(), text.end());
            finishResponse(frame);
            break;
        }
        case Op::Metrics: {
            beginResponse(frame, req.op, Wire::kOk, req.request_id);
            std::string text = metricsText();
            frame.insert(frame.end(), text.begin(), text.end());
            finishResponse(frame);
            break;
        }
        case Op::Shutdown:
            beginResponse(frame, req.op, Wire::kOk, req.request_id);
            finishResponse(frame);
            break;
        case Op::Open:
            executeOpen(session, req, frame);
            break;
        case Op::Seek:
            executeSeek(session, req, frame);
            break;
        case Op::ReadRange:
            executeReadRange(session, req, frame);
            break;
        case Op::Close:
            executeClose(session, req, frame);
            break;
        }
    } catch (const std::exception &e) {
        // Any failure — a util::Error or a std::exception from a
        // hostile container — answers this request with `internal`;
        // the worker, and every other session, keeps serving.
        encodeErrorResponse(frame, req.op, Wire::kInternal,
                            req.request_id, e.what());
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
    }
    // Account for the request before its response can reach the
    // client, so a STAT or METRICS sent after it always sees it done.
    uint64_t total_us = 0;
    if (req.arrival_ns != 0) {
        uint64_t now = obs::nowNs();
        if (now != 0) {
            total_us = (now - req.arrival_ns) / 1000;
            reqHist(req.op).record(total_us);
        }
    }
    if (isHeavy(req.op)) {
        counters_.inflight_heavy.fetch_sub(1, std::memory_order_relaxed);
        serveObs().inflight.dec();
    }
    sendFrame(session, frame);
    Wire status = frameStatus(frame);
    logf(status == Wire::kOk ? LogLevel::kDebug : LogLevel::kInfo,
         "session=%llu op=%s status=%s us=%llu",
         static_cast<unsigned long long>(session.id), opName(req.op),
         wireName(status),
         static_cast<unsigned long long>(total_us));
    if (isHeavy(req.op))
        finishHeavy(session, req.records());
    else
        wakeIo(); // a drained slot may unblock globally-parked work
    if (req.op == Op::Shutdown)
        requestStop();
}

void
TraceServer::executeOpen(Session &session, const Request &req,
                         std::vector<uint8_t> &frame)
{
    auto it = by_name_.find(req.name);
    if (it == by_name_.end()) {
        encodeErrorResponse(frame, req.op, Wire::kNotFound,
                            req.request_id,
                            "no container named '" + req.name + "'");
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    const Container *container = it->second;
    auto handle = std::make_shared<Handle>();
    handle->cursor = container->index->cursor();
    handle->container = container;
    uint32_t id;
    {
        std::lock_guard<std::mutex> lock(session.h_mu);
        id = session.next_handle++;
        session.handles.emplace(id, std::move(handle));
    }
    beginResponse(frame, req.op, Wire::kOk, req.request_id);
    putU32(frame, id);
    putU64(frame, container->index->size());
    frame.push_back(container->index->mode() == core::Mode::Lossy ? 1
                                                                  : 0);
    frame.push_back(container->index->version());
    finishResponse(frame);
}

void
TraceServer::executeSeek(Session &session, const Request &req,
                         std::vector<uint8_t> &frame)
{
    std::shared_ptr<Handle> handle;
    {
        std::lock_guard<std::mutex> lock(session.h_mu);
        auto it = session.handles.find(req.handle);
        if (it != session.handles.end())
            handle = it->second;
    }
    if (!handle) {
        encodeErrorResponse(frame, req.op, Wire::kBadHandle,
                            req.request_id,
                            "handle " + std::to_string(req.handle) +
                                " is not open");
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(handle->mu);
    obs::LatencyTimer decode_t(serveObs().decode_us);
    util::Status st = handle->cursor->seek(req.begin);
    if (!st.ok()) {
        encodeErrorResponse(frame, req.op, Wire::kOutOfRange,
                            req.request_id, st.message());
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    uint64_t actual = handle->cursor->tell();
    std::vector<uint64_t> records(req.count);
    size_t n = req.count == 0
                   ? 0
                   : handle->cursor->read(records.data(), req.count);
    decode_t.stop();
    beginResponse(frame, req.op, Wire::kOk, req.request_id);
    putU64(frame, actual);
    putU32(frame, static_cast<uint32_t>(n));
    frame.reserve(frame.size() + 8 * n);
    for (size_t i = 0; i < n; ++i)
        putU64(frame, records[i]);
    finishResponse(frame);
    counters_.records_served.fetch_add(n, std::memory_order_relaxed);
}

void
TraceServer::executeReadRange(Session &session, const Request &req,
                              std::vector<uint8_t> &frame)
{
    std::shared_ptr<Handle> handle;
    {
        std::lock_guard<std::mutex> lock(session.h_mu);
        auto it = session.handles.find(req.handle);
        if (it != session.handles.end())
            handle = it->second;
    }
    if (!handle) {
        encodeErrorResponse(frame, req.op, Wire::kBadHandle,
                            req.request_id,
                            "handle " + std::to_string(req.handle) +
                                " is not open");
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(handle->mu);
    if (req.end > handle->cursor->size()) {
        encodeErrorResponse(frame, req.op, Wire::kOutOfRange,
                            req.request_id,
                            "range end " + std::to_string(req.end) +
                                " exceeds trace size " +
                                std::to_string(handle->cursor->size()));
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    std::vector<uint64_t> records;
    obs::LatencyTimer decode_t(serveObs().decode_us);
    util::Status st =
        handle->cursor->readRange(req.begin, req.end, records);
    decode_t.stop();
    if (!st.ok()) {
        encodeErrorResponse(frame, req.op, Wire::kInternal,
                            req.request_id, st.message());
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    beginResponse(frame, req.op, Wire::kOk, req.request_id);
    putU32(frame, static_cast<uint32_t>(records.size()));
    frame.reserve(frame.size() + 8 * records.size());
    for (uint64_t v : records)
        putU64(frame, v);
    finishResponse(frame);
    counters_.records_served.fetch_add(records.size(),
                                       std::memory_order_relaxed);
}

void
TraceServer::executeClose(Session &session, const Request &req,
                          std::vector<uint8_t> &frame)
{
    size_t erased;
    {
        std::lock_guard<std::mutex> lock(session.h_mu);
        erased = session.handles.erase(req.handle);
    }
    if (erased == 0) {
        encodeErrorResponse(frame, req.op, Wire::kBadHandle,
                            req.request_id,
                            "handle " + std::to_string(req.handle) +
                                " is not open");
        counters_.request_errors.fetch_add(1,
                                           std::memory_order_relaxed);
        return;
    }
    beginResponse(frame, req.op, Wire::kOk, req.request_id);
    finishResponse(frame);
}

void
TraceServer::finishHeavy(Session &session, uint64_t records)
{
    {
        std::lock_guard<std::mutex> lock(session.adm_mu);
        session.inflight -= 1;
        session.inflight_records -= records;
        // Fast path: admit this session's own parked work without an
        // I/O-thread round trip.
        admitLocked(session);
    }
    // The freed queue slot may unblock *other* sessions parked on a
    // full queue, and a shrunken pending queue may resume a paused
    // socket — both decisions belong to the I/O thread.
    wakeIo();
}

void
TraceServer::sendFrame(Session &session,
                       const std::vector<uint8_t> &frame)
{
    if (frame.empty() || session.closed.load())
        return;
    std::lock_guard<std::mutex> lock(session.write_mu);
    if (session.closed.load())
        return;
    std::string err;
    obs::LatencyTimer write_t(serveObs().write_us);
    IoResult r = session.sock.writeFull(frame.data(), frame.size(),
                                        &err, kWriteTimeoutMs);
    write_t.stop();
    if (r == IoResult::kOk) {
        counters_.bytes_sent.fetch_add(frame.size(),
                                       std::memory_order_relaxed);
        return;
    }
    // kEof: the peer went away — clean disconnect. kError: timeout or
    // genuine failure — same remedy, drop the session.
    session.closed.store(true);
    wakeIo();
}

// ------------------------------------------------------- stats

ServerStats
TraceServer::stats() const
{
    ServerStats out;
    out.connections_accepted =
        counters_.connections_accepted.load(std::memory_order_relaxed);
    out.sessions_active =
        counters_.sessions_active.load(std::memory_order_relaxed);
    out.disconnects =
        counters_.disconnects.load(std::memory_order_relaxed);
    auto req = [this](Op op) {
        return counters_.requests[static_cast<size_t>(op)].load(
            std::memory_order_relaxed);
    };
    out.requests_ping = req(Op::Ping);
    out.requests_open = req(Op::Open);
    out.requests_seek = req(Op::Seek);
    out.requests_read_range = req(Op::ReadRange);
    out.requests_stat = req(Op::Stat);
    out.requests_close = req(Op::Close);
    out.requests_shutdown = req(Op::Shutdown);
    out.requests_metrics = req(Op::Metrics);
    out.protocol_errors =
        counters_.protocol_errors.load(std::memory_order_relaxed);
    out.request_errors =
        counters_.request_errors.load(std::memory_order_relaxed);
    out.admission_deferred =
        counters_.admission_deferred.load(std::memory_order_relaxed);
    out.records_served =
        counters_.records_served.load(std::memory_order_relaxed);
    out.bytes_sent = counters_.bytes_sent.load(std::memory_order_relaxed);
    out.queue_depth = pool_ ? pool_->queued() : 0;
    out.inflight_heavy =
        counters_.inflight_heavy.load(std::memory_order_relaxed);
    if (started_.load() &&
        start_tp_ != std::chrono::steady_clock::time_point{})
        out.uptime_seconds = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - start_tp_)
                .count());
    return out;
}

std::string
TraceServer::statText() const
{
    ServerStats s = stats();
    std::string out;
    appendStat(out, "server.protocol_version", kProtocolVersion);
    appendStat(out, "server.containers", containers_.size());
    appendStat(out, "server.threads", pool_ ? pool_->size() : 0);
    appendStat(out, "server.queue_capacity", kQueueCapacity);
    appendStat(out, "server.queue_depth", s.queue_depth);
    appendStat(out, "server.max_inflight_per_client",
               opt_.max_inflight_per_client);
    appendStat(out, "server.max_inflight_records_per_client",
               opt_.max_inflight_records_per_client);
    appendStat(out, "server.max_range_records", opt_.max_range_records);
    appendStat(out, "server.connections_accepted",
               s.connections_accepted);
    appendStat(out, "server.sessions_active", s.sessions_active);
    appendStat(out, "server.disconnects", s.disconnects);
    appendStat(out, "server.requests.ping", s.requests_ping);
    appendStat(out, "server.requests.open", s.requests_open);
    appendStat(out, "server.requests.seek", s.requests_seek);
    appendStat(out, "server.requests.read_range",
               s.requests_read_range);
    appendStat(out, "server.requests.stat", s.requests_stat);
    appendStat(out, "server.requests.close", s.requests_close);
    appendStat(out, "server.requests.shutdown", s.requests_shutdown);
    appendStat(out, "server.requests.metrics", s.requests_metrics);
    appendStat(out, "server.uptime_seconds", s.uptime_seconds);
    appendStat(out, "server.inflight_heavy", s.inflight_heavy);
    appendStat(out, "server.protocol_errors", s.protocol_errors);
    appendStat(out, "server.request_errors", s.request_errors);
    appendStat(out, "server.admission_deferred", s.admission_deferred);
    appendStat(out, "server.records_served", s.records_served);
    appendStat(out, "server.bytes_sent", s.bytes_sent);
    for (const auto &container : containers_) {
        const std::string prefix = "container." + container->name;
        appendStat(out, prefix + ".records",
                   container->index->size());
        appendStat(out, prefix + ".mode",
                   container->index->mode() == core::Mode::Lossy ? 1
                                                                 : 0);
        appendStat(out, prefix + ".container_version",
                   container->index->version());
        core::BlockCacheStats cs = container->index->cacheStats();
        appendStat(out, prefix + ".cache.capacity_bytes",
                   container->index->mode() == core::Mode::Lossy
                       ? container->index->chunkCache().capacityBytes()
                       : container->index->frameCache().capacityBytes());
        appendStat(out, prefix + ".cache.hits", cs.hits);
        appendStat(out, prefix + ".cache.misses", cs.misses);
        appendStat(out, prefix + ".cache.insertions", cs.insertions);
        appendStat(out, prefix + ".cache.evictions", cs.evictions);
        appendStat(out, prefix + ".cache.bytes", cs.bytes);
        appendStat(out, prefix + ".cache.entries", cs.entries);
    }
    return out;
}

std::string
TraceServer::metricsText()
{
    return obs::snapshotToText(obs::Registry::global().snapshot());
}

void
TraceServer::logf(LogLevel level, const char *fmt, ...) const
{
    if (static_cast<int>(opt_.log_level) < static_cast<int>(level))
        return;
    // Wall-clock stamp with millisecond resolution; one fputs so
    // lines from the I/O thread and workers do not interleave.
    auto now = std::chrono::system_clock::now();
    std::time_t secs = std::chrono::system_clock::to_time_t(now);
    int millis = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count() %
        1000);
    struct tm tm_utc;
    gmtime_r(&secs, &tm_utc);
    char line[512];
    size_t n = std::strftime(line, sizeof(line),
                             "[atcserved] %Y-%m-%dT%H:%M:%S", &tm_utc);
    n += static_cast<size_t>(std::snprintf(
        line + n, sizeof(line) - n, ".%03dZ %s ", millis,
        level == LogLevel::kDebug ? "debug" : "info"));
    va_list ap;
    va_start(ap, fmt);
    n += static_cast<size_t>(
        std::vsnprintf(line + n, sizeof(line) - n, fmt, ap));
    va_end(ap);
    if (n >= sizeof(line) - 1)
        n = sizeof(line) - 2;
    line[n] = '\n';
    line[n + 1] = '\0';
    std::fputs(line, stderr);
}

std::shared_ptr<const core::AtcIndex>
TraceServer::containerIndex(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second->index;
}

} // namespace atc::serve

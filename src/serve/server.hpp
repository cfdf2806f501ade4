/**
 * @file
 * TraceServer: a concurrent trace-serving daemon over the
 * random-access read stack.
 *
 * One server opens N containers once — one shared AtcIndex (and
 * therefore one shared decoded-block cache) per container, with a
 * global cache budget partitioned across them — and serves thousands
 * of range/seek clients over the length-prefixed binary protocol of
 * serve/protocol.hpp.
 *
 * Architecture:
 *
 *   poll thread ──parse──▶ admission ──trySubmit──▶ parallel::ThreadPool
 *   (listener, sockets)    (per session)            (request workers)
 *
 * A single I/O thread polls the listener and every client socket,
 * accumulates bytes, slices frames, parses them into typed requests,
 * and *admits* them as tasks on the server's one ThreadPool (queue
 * depth 256, reported as server.queue_capacity). Its workers execute
 * the requests — each OPEN handle owns a private AtcCursor over the
 * container's shared index, so concurrent clients share decoded blocks
 * through the index's BlockCache while keeping their own seek state —
 * and write responses directly to the session socket. Admission never
 * blocks: when the pool's queue is full the request stays parked and
 * is retried on the next wakeup.
 *
 * Admission control is what keeps the daemon fair: each session may
 * have at most max_inflight_per_client heavy requests (SEEK /
 * READ_RANGE) executing, pinning at most
 * max_inflight_records_per_client decoded records between them.
 * Requests beyond the budget wait in a per-session pending queue (and
 * count as admission_deferred in STAT); a pending queue of 64 requests
 * pauses *reading* that session's socket, so the flood backs up into
 * the client's TCP window. A greedy scanner therefore occupies a
 * bounded slice of the workers and the pool's queue no matter how hard
 * it pipelines, and seek-heavy clients keep their latency (the
 * serve_latency bench reports exactly this p50/p99 under a hostile
 * scanner; tests/serve_test.cpp proves the bound).
 *
 * Thread-safety: the I/O thread owns session read buffers and the
 * poll set; admission state is mutex-guarded per session (workers
 * release budget on completion and wake the I/O thread through a
 * self-pipe to admit more); socket writes serialize on a per-session
 * mutex, and a client that does not drain its socket for 30 s is
 * disconnected; handle tables are mutex-guarded per session with
 * per-handle locks around cursor use. A session is reference-counted
 * by its admitted requests, so teardown never races an executing
 * request — the descriptor closes when the last reference drops.
 *
 * Handle cursors hold no pool, so a cold READ_RANGE decodes its frames
 * on the one worker that runs it. Giving them the server's pool could
 * deadlock: a cursor waiting on a frame task helps by running any
 * queued task (Task::get()), so a worker holding a handle's mutex
 * could pick up the next pipelined request on that same handle and
 * block on the mutex it already holds; and a frame submit from a
 * worker can block on a queue full of requests. Fanning cold ranges
 * out needs a design of its own.
 */

#ifndef ATC_SERVE_SERVER_HPP_
#define ATC_SERVE_SERVER_HPP_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "atc/block_cache.hpp"
#include "atc/index.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/status.hpp"

namespace atc::serve {

/** Verbosity of the daemon's structured stderr log. */
enum class LogLevel : int {
    kOff = 0,   ///< silent (default)
    kInfo = 1,  ///< session lifecycle + non-ok requests
    kDebug = 2, ///< every request, including ok ones
};

/** Knobs of a TraceServer. */
struct ServeOptions
{
    /** Loopback port to listen on; 0 = kernel-assigned (see port()). */
    uint16_t port = 0;

    /** Worker threads executing requests; 0 = hardware concurrency. */
    size_t threads = 0;

    /** Global decoded-block cache budget, partitioned evenly across
     *  the served containers' AtcIndex instances (0 disables). */
    size_t cache_bytes = core::kDefaultDecodedCacheBytes;

    /** Max heavy requests (SEEK/READ_RANGE) of one session executing
     *  or queued on the pool at once. */
    uint32_t max_inflight_per_client = 4;

    /** Max decoded records one session may pin across its in-flight
     *  heavy requests. A single request within max_range_records is
     *  always admissible once the session is otherwise idle. */
    uint64_t max_inflight_records_per_client = 1u << 18;

    /** Hard per-request ceiling on requested records; beyond it the
     *  request fails with kTooLarge (clients must split). */
    uint64_t max_range_records = 1u << 22;

    /** Structured stderr logging verbosity: one line per session
     *  lifecycle event and per non-ok request at kInfo, every request
     *  at kDebug. */
    LogLevel log_level = LogLevel::kOff;
};

/** Monotonic server counters (a racy but self-consistent snapshot). */
struct ServerStats
{
    uint64_t connections_accepted = 0;
    uint64_t sessions_active = 0;
    uint64_t disconnects = 0;
    uint64_t requests_ping = 0;
    uint64_t requests_open = 0;
    uint64_t requests_seek = 0;
    uint64_t requests_read_range = 0;
    uint64_t requests_stat = 0;
    uint64_t requests_close = 0;
    uint64_t requests_shutdown = 0;
    uint64_t requests_metrics = 0;
    uint64_t protocol_errors = 0;
    uint64_t request_errors = 0;
    uint64_t admission_deferred = 0;
    uint64_t records_served = 0;
    uint64_t bytes_sent = 0;
    uint64_t queue_depth = 0;
    /** Heavy requests admitted but not yet finished (gauge). */
    uint64_t inflight_heavy = 0;
    /** Whole seconds since start() (0 before start). */
    uint64_t uptime_seconds = 0;
};

/** The daemon; see the file comment. */
class TraceServer
{
  public:
    explicit TraceServer(ServeOptions opt = {});
    ~TraceServer();

    TraceServer(const TraceServer &) = delete;
    TraceServer &operator=(const TraceServer &) = delete;

    /**
     * Serve @p store under @p name (borrowed; must outlive the
     * server). Must be called before start(); the index opens inside
     * start(), once the final container count — and therefore each
     * container's even share of the global cache budget — is known.
     */
    util::Status addContainer(const std::string &name,
                              core::ChunkStore &store);

    /** Serve the container directory @p dir under @p name (suffix
     *  auto-detected; the store is owned by the server). */
    util::Status addContainer(const std::string &name,
                              const std::string &dir);

    /** Open every registered container (an even cache_bytes share
     *  each), bind, create the request pool and spawn the I/O
     *  thread. */
    util::Status start();

    /** @return the bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /**
     * Request asynchronous shutdown. Callable from any thread —
     * including a worker executing the SHUTDOWN opcode — it only
     * signals; the teardown runs in stop()/the destructor.
     */
    void requestStop();

    /** Block until shutdown has been requested (SHUTDOWN opcode,
     *  requestStop(), or stop()). */
    void wait();

    /** wait() with a timeout. @return true when shutdown was
     *  requested, false on timeout. */
    bool waitFor(int timeout_ms);

    /** Full teardown: signal, join the I/O thread, shut the pool down
     *  (its queued requests still run), close every session.
     *  Idempotent. Must not be called from a worker (use requestStop()
     *  there). */
    void stop();

    /** @return a snapshot of the server counters. */
    ServerStats stats() const;

    /** @return the STAT payload: one `key=value` line per counter,
     *  plus per-container records/cache lines (see docs/protocol.md). */
    std::string statText() const;

    /** @return the METRICS payload: the process-wide obs registry
     *  snapshot in the shared `atc_metrics 1` text encoding. */
    static std::string metricsText();

    /** @return the shared index serving @p name, or nullptr. */
    std::shared_ptr<const core::AtcIndex>
    containerIndex(const std::string &name) const;

  private:
    struct Container
    {
        std::string name;
        std::shared_ptr<const core::AtcIndex> index;
        core::ChunkStore *store = nullptr; ///< borrowed registration
        std::string dir; ///< directory registration (store == nullptr)
    };

    /** One OPEN handle: a cursor plus the lock serializing it (a
     *  client may pipeline two requests against one handle; cursors
     *  are single-threaded by contract). */
    struct Handle
    {
        std::unique_ptr<core::AtcCursor> cursor;
        const Container *container = nullptr;
        std::mutex mu;
    };

    struct Session;

    // I/O-thread internals (all called on io_thread_ unless noted).
    void ioLoop();
    void pollOnce();
    void acceptPending();
    void readSession(const std::shared_ptr<Session> &session);
    void parseFrames(const std::shared_ptr<Session> &session);
    /** Admission loop; requires @p session.adm_mu held. Callable from
     *  the I/O thread and from workers releasing budget. */
    void admitLocked(Session &session);
    void admitAll();
    void reapSessions();
    void wakeIo();

    // Worker-side request execution.
    void handleRequest(Session &session, const Request &req);
    void executeOpen(Session &session, const Request &req,
                     std::vector<uint8_t> &frame);
    void executeSeek(Session &session, const Request &req,
                     std::vector<uint8_t> &frame);
    void executeReadRange(Session &session, const Request &req,
                          std::vector<uint8_t> &frame);
    void executeClose(Session &session, const Request &req,
                      std::vector<uint8_t> &frame);
    void finishHeavy(Session &session, uint64_t records);
    void sendFrame(Session &session, const std::vector<uint8_t> &frame);
    void countRequest(Op op);

    /** printf-style structured stderr log line, emitted when
     *  opt_.log_level >= @p level (timestamped, single write). */
    void logf(LogLevel level, const char *fmt, ...) const
        __attribute__((format(printf, 3, 4)));

    ServeOptions opt_;
    uint16_t port_ = 0;
    std::vector<std::unique_ptr<Container>> containers_;
    std::map<std::string, const Container *> by_name_;

    Socket listener_;
    // Self-pipe: workers and requestStop() nudge the poll loop.
    Socket wake_rd_, wake_wr_;
    std::map<int, std::shared_ptr<Session>> sessions_; // io thread only

    // Runs every admitted request; created by start(), shut down (its
    // queued requests run, its workers joined) by stop().
    std::unique_ptr<parallel::ThreadPool> pool_;
    std::thread io_thread_;

    /** Set by start(); statText() derives uptime from it. */
    std::chrono::steady_clock::time_point start_tp_{};

    std::atomic<bool> started_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> stopped_{false};
    mutable std::mutex stop_mu_;
    std::condition_variable stop_cv_;

    // Counters (relaxed atomics; STAT assembles a snapshot).
    struct Counters
    {
        std::atomic<uint64_t> connections_accepted{0};
        std::atomic<uint64_t> sessions_active{0};
        std::atomic<uint64_t> disconnects{0};
        std::atomic<uint64_t> requests[kOpCount] = {};
        std::atomic<uint64_t> protocol_errors{0};
        std::atomic<uint64_t> request_errors{0};
        std::atomic<uint64_t> admission_deferred{0};
        std::atomic<uint64_t> records_served{0};
        std::atomic<uint64_t> bytes_sent{0};
        /** Heavy requests admitted, not yet released (per-server; the
         *  obs serve.inflight gauge is its process-wide mirror). */
        std::atomic<uint64_t> inflight_heavy{0};
    };
    mutable Counters counters_;
};

} // namespace atc::serve

#endif // ATC_SERVE_SERVER_HPP_

/**
 * @file
 * Fixed-size thread pool over a bounded MPMC task channel, and Task<T>,
 * the one handle through which any code puts work on a pool.
 *
 * submit() enqueues a task, blocking when the queue is full — bounded
 * submission is the backpressure mechanism that keeps a fast producer
 * (e.g. a trace generator) from buffering unbounded work. trySubmit()
 * refuses instead of blocking; the serving daemon admits requests
 * with it and parks what the queue cannot take.
 *
 * Task<T> is how the writer (codec frames, forward transforms, lossy
 * signatures and chunks), the read engine (frames, inverse
 * transforms, lossy chunks) and the sampling study (per-worker window
 * runs) run a stage "on a pool or inline": built from (pool, fn), fn
 * runs on the pool when there is one, else it is deferred to get() on
 * the caller's thread. Each stage keeps the tasks of a bounded window
 * (windowDepth()) and resolves them in order, so one code path serves
 * every thread count, 0 included. A Task may also be built already
 * resolved, from a value (a cache hit) or from an error (a bad header,
 * surfaced when the reader reaches it).
 *
 * get() need not idle: it runs queued tasks on the calling thread
 * (runOne()) until its own task is done, so the caller decodes or
 * encodes alongside the workers. It rethrows the task's error on that
 * call and on every later one, so a retried read reports the same
 * failure instead of resuming past it. Destroying a Task waits
 * (helping the same way) for a task still pending on a pool, so a
 * task may borrow what its owner holds; a deferred task that was never
 * read never runs. AtcReader and AtcWriter size the queue to hold
 * every window they keep, so submitting never blocks there. Any queued
 * task may run on a helping caller, so a pool that callers help must
 * hold only tasks that finish on their own.
 *
 * Destruction closes the task channel, runs the tasks already queued,
 * and joins the workers; a Task still held after that never deadlocks,
 * because its task either ran or was refused at submission.
 */

#ifndef ATC_PARALLEL_THREAD_POOL_HPP_
#define ATC_PARALLEL_THREAD_POOL_HPP_

#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/channel.hpp"

namespace atc::parallel {

/** @return a sensible worker count: @p requested, or the hardware
 *  concurrency when @p requested is 0 (at least 1). */
size_t resolveThreads(size_t requested);

/** Fixed-size worker pool consuming a bounded task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads        worker count; 0 = hardware concurrency
     * @param queue_capacity bounded task-queue depth; 0 = 2 * threads
     */
    explicit ThreadPool(size_t threads = 0, size_t queue_capacity = 0);

    /** Close the queue, finish queued tasks, join the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return worker count. */
    size_t size() const { return workers_.size(); }

    /**
     * Enqueue @p task; blocks while the queue is full.
     * @return false if the pool is shutting down (task dropped)
     */
    bool submit(std::function<void()> task);

    /**
     * Enqueue @p task without blocking: the admission primitive of a
     * caller that must never stall (the server's poll loop parks the
     * request itself instead).
     * @return false when the queue is full or shut down (task dropped)
     */
    bool trySubmit(std::function<void()> task);

    /** @return tasks queued and not yet picked up. */
    size_t queued() const { return tasks_.size(); }

    /**
     * Run the oldest queued task on the calling thread, if any.
     * @return false when the queue was empty
     */
    bool runOne();

    /** Close the queue, finish queued tasks, and join (idempotent). */
    void shutdown();

  private:
    // Tasks carry their enqueue timestamp so the thread that dequeues
    // one can record queue latency (pool.queue_wait_us) before running
    // it; execution time lands in pool.worker_busy_us, or in
    // pool.caller_busy_us for a task a waiting caller ran (runOne()).
    struct Queued {
        std::function<void()> fn;
        uint64_t enqueue_ns = 0;
    };

    static void run(Queued &task, bool on_caller);

    Channel<Queued> tasks_;
    std::vector<std::thread> workers_;
};

/**
 * A move-only handle on one task of a pooled stage (see the file
 * comment): run on a pool, deferred to get() without one, or already
 * resolved to a value or an error.
 */
template <typename T>
class Task
{
    /** What get() hands back (void tasks keep nothing). */
    using Stored = std::conditional_t<std::is_void_v<T>, bool, T>;

  public:
    /** An empty handle, resolved with no value (nothing to wait for). */
    Task() = default;

    /**
     * Run @p fn on @p pool, or — without one — on the caller's thread
     * in get().
     * @throws util::Error when @p pool is shut down
     */
    template <typename F>
    Task(ThreadPool *pool, F fn) : pool_(pool)
    {
        if (pool == nullptr) {
            future_ = std::async(std::launch::deferred, std::move(fn));
            return;
        }
        // packaged_task is move-only; std::function requires copyable
        // targets, so the task rides in a shared_ptr.
        auto task = std::make_shared<std::packaged_task<T()>>(std::move(fn));
        future_ = task->get_future();
        if (!pool->submit([task] { (*task)(); }))
            util::raise("thread pool is shut down");
    }

    /** A task resolved to @p value. */
    explicit Task(Stored value)
        requires(!std::is_void_v<T>)
        : value_(std::move(value))
    {}

    /** A task failed with @p error; get() rethrows it. */
    explicit Task(std::exception_ptr error) : error_(std::move(error)) {}

    Task(Task &&) noexcept = default;

    /** Waits for the task this handle held before taking @p other's. */
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            join();
            pool_ = other.pool_;
            future_ = std::move(other.future_);
            value_ = std::move(other.value_);
            error_ = std::move(other.error_);
        }
        return *this;
    }

    /** Waits for a task still pending on a pool. */
    ~Task() { join(); }

    /**
     * Wait for the task, running queued pool tasks meanwhile, and
     * return its result (held by the handle, so callers may move from
     * it). Rethrows the task's error on every call.
     */
    std::add_lvalue_reference_t<T>
    get()
    {
        if (future_.valid()) {
            join();
            try {
                if constexpr (std::is_void_v<T>)
                    future_.get();
                else
                    value_.emplace(future_.get());
            } catch (...) {
                error_ = std::current_exception();
            }
        }
        if (error_)
            std::rethrow_exception(error_);
        if constexpr (!std::is_void_v<T>) {
            ATC_ASSERT(value_.has_value());
            return *value_;
        }
    }

  private:
    /** Wait for a task pending on the pool, running queued tasks on
     *  the calling thread while any are queued. */
    void
    join()
    {
        if (pool_ == nullptr || !future_.valid())
            return;
        while (future_.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!pool_->runOne()) {
                future_.wait(); // the rest is running on the workers
                return;
            }
        }
    }

    ThreadPool *pool_ = nullptr;
    std::future<T> future_;
    std::optional<Stored> value_;
    std::exception_ptr error_;
};

/** @return how many tasks an ordered window over @p pool keeps in
 *  flight: 2 per worker, or 0 (run each at once) without. */
inline size_t
windowDepth(const ThreadPool *pool)
{
    return pool != nullptr ? 2 * pool->size() : 0;
}

} // namespace atc::parallel

#endif // ATC_PARALLEL_THREAD_POOL_HPP_

/**
 * @file
 * Fixed-size thread pool over a bounded MPMC task channel.
 *
 * submit() enqueues a task, blocking when the queue is full — bounded
 * submission is the backpressure mechanism that keeps a fast producer
 * (e.g. a trace generator) from buffering unbounded work. async() wraps
 * submit() with a std::future for the task's result; callers that need
 * ordered reassembly keep their futures in a deque and resolve them in
 * submission order.
 *
 * launch() is the one way the read engine and the writer run a task
 * "on a pool or inline": on the pool when there is one, else deferred
 * to the future's get() on the caller's thread. Both keep the futures
 * of a bounded window (windowDepth()) and resolve them in order, so
 * one code path serves every thread count, 0 included.
 *
 * A caller that waits on its own tasks' results need not idle: wait()
 * runs queued tasks on the calling thread (runOne()) until the future
 * it waits for is ready. The pooled read engine (atc/index.hpp) waits
 * this way, so its caller decodes alongside the workers; the writer's
 * drains wait with a plain get(). AtcReader and AtcWriter size the
 * queue to hold every window they keep, so submitting never blocks
 * there either. Any queued task may run on a helping caller, so a
 * pool that callers help must hold only tasks that finish on their own
 * — not, say, the serve daemon's long-lived drain loops (job_queue.hpp).
 *
 * Destruction closes the task channel, runs the tasks already queued,
 * and joins the workers; abandoned futures never deadlock because
 * workers block only on the channel, never on callers.
 */

#ifndef ATC_PARALLEL_THREAD_POOL_HPP_
#define ATC_PARALLEL_THREAD_POOL_HPP_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
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
     * Enqueue @p fn and expose its result (or exception) as a future.
     * @throws util::Error when the pool is shutting down
     */
    template <typename F>
    auto
    async(F fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        // packaged_task is move-only; std::function requires copyable
        // targets, so the task rides in a shared_ptr.
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> future = task->get_future();
        if (!submit([task] { (*task)(); }))
            util::raise("thread pool is shut down");
        return future;
    }

    /**
     * Run the oldest queued task on the calling thread, if any.
     * @return false when the queue was empty
     */
    bool runOne();

    /** Block until @p future is ready, running queued tasks on the
     *  calling thread while any are queued. */
    template <typename T>
    void
    wait(const std::future<T> &future)
    {
        while (future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!runOne()) {
                future.wait(); // the rest is running on the workers
                return;
            }
        }
    }

    /** Close the queue, finish queued tasks, and join (idempotent). */
    void shutdown();

  private:
    // Tasks carry their enqueue timestamp so the thread that dequeues
    // one can record queue latency (pool.queue_wait_us) before running
    // it; execution time lands in pool.worker_busy_us, or in
    // pool.caller_busy_us for a task a waiting caller ran (runOne()).
    // Note the serve daemon's attachWorkers drain loops are single
    // long-lived tasks, so for the daemon busy time covers the whole
    // drain, not one request (the serve layer has its own per-request
    // histograms).
    struct Task {
        std::function<void()> fn;
        uint64_t enqueue_ns = 0;
    };

    static void run(Task &task, bool on_caller);

    Channel<Task> tasks_;
    std::vector<std::thread> workers_;
};

/**
 * Run @p fn on @p pool, or — without one — on the caller's thread when
 * its future is read (a deferred std::async).
 */
template <typename F>
auto
launch(ThreadPool *pool, F fn) -> std::future<std::invoke_result_t<F>>
{
    if (pool != nullptr)
        return pool->async(std::move(fn));
    return std::async(std::launch::deferred, std::move(fn));
}

/** @return how many launched tasks an ordered window over @p pool
 *  keeps in flight: 2 per worker, or 0 (run each at once) without. */
inline size_t
windowDepth(const ThreadPool *pool)
{
    return pool != nullptr ? 2 * pool->size() : 0;
}

} // namespace atc::parallel

#endif // ATC_PARALLEL_THREAD_POOL_HPP_

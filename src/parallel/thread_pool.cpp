#include "parallel/thread_pool.hpp"

namespace atc::parallel {

size_t
resolveThreads(size_t requested)
{
    if (requested != 0)
        return requested;
    size_t hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

ThreadPool::ThreadPool(size_t threads, size_t queue_capacity)
    : tasks_(queue_capacity != 0 ? queue_capacity
                                 : 2 * resolveThreads(threads))
{
    size_t n = resolveThreads(threads);
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this] {
            Queued task;
            while (tasks_.pop(task))
                run(task, false);
        });
    }
}

void
ThreadPool::run(Queued &task, bool on_caller)
{
    struct Metrics {
        obs::Histogram &queue_wait;
        obs::Counter &worker_busy_us;
        obs::Counter &worker_tasks;
        obs::Counter &caller_busy_us;
        obs::Counter &caller_tasks;
    };
    auto &reg = obs::Registry::global();
    static Metrics m{
        reg.histogram("pool.queue_wait_us"),
        reg.counter("pool.worker_busy_us"),
        reg.counter("pool.tasks"),
        reg.counter("pool.caller_busy_us"),
        reg.counter("pool.caller_tasks"),
    };
    if (task.enqueue_ns != 0) {
        uint64_t now = obs::nowNs();
        if (now != 0)
            m.queue_wait.record((now - task.enqueue_ns) / 1000);
    }
    (on_caller ? m.caller_tasks : m.worker_tasks).inc();
    obs::StageTimer busy_t(on_caller ? m.caller_busy_us : m.worker_busy_us);
    task.fn();
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

bool
ThreadPool::submit(std::function<void()> task)
{
    return tasks_.push(Queued{std::move(task), obs::nowNs()});
}

bool
ThreadPool::trySubmit(std::function<void()> task)
{
    return tasks_.tryPush(Queued{std::move(task), obs::nowNs()});
}

bool
ThreadPool::runOne()
{
    Queued task;
    if (!tasks_.tryPop(task))
        return false;
    run(task, true);
    return true;
}

void
ThreadPool::shutdown()
{
    tasks_.close();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

} // namespace atc::parallel

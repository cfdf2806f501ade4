/**
 * @file
 * Bounded MPMC channel: the work/result conduit of the parallel
 * subsystem.
 *
 * A Channel<T> is a fixed-capacity FIFO safe for any number of
 * producers and consumers. push() blocks while the channel is full;
 * pop() blocks while it is empty. close() wakes every waiter: further
 * push() calls fail, and pop() drains the remaining items before
 * reporting end-of-channel. Either side may close, which is what makes
 * mid-stream cancellation deadlock-free — a producer blocked in push()
 * unblocks the moment the consumer closes, and vice versa.
 */

#ifndef ATC_PARALLEL_CHANNEL_HPP_
#define ATC_PARALLEL_CHANNEL_HPP_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::parallel {

namespace detail {

// Blocked-wait histograms, shared by every Channel<T> instantiation.
// The uncontended fast path never reads a clock: time is taken only
// when the wait predicate is already unsatisfied under the lock, i.e.
// the caller is about to block regardless.
inline obs::Histogram &
channelPushWaitHist()
{
    static obs::Histogram &h =
        obs::Registry::global().histogram("channel.push_wait_us");
    return h;
}

inline obs::Histogram &
channelPopWaitHist()
{
    static obs::Histogram &h =
        obs::Registry::global().histogram("channel.pop_wait_us");
    return h;
}

}  // namespace detail

/** Fixed-capacity multi-producer multi-consumer queue. */
template <typename T>
class Channel
{
  public:
    /** @param capacity maximum queued items; must be positive. */
    explicit Channel(size_t capacity) : capacity_(capacity)
    {
        ATC_ASSERT(capacity_ > 0);
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Enqueue @p item, blocking while the channel is full.
     * @return false if the channel was closed (item dropped)
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!closed_ && queue_.size() >= capacity_) {
            obs::LatencyTimer wait_t(detail::channelPushWaitHist());
            not_full_.wait(lock, [this] {
                return closed_ || queue_.size() < capacity_;
            });
        }
        if (closed_)
            return false;
        queue_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /**
     * Dequeue into @p out, blocking while the channel is empty.
     * A closed channel still drains its remaining items.
     * @return false when the channel is closed and empty
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!closed_ && queue_.empty()) {
            obs::LatencyTimer wait_t(detail::channelPopWaitHist());
            not_empty_.wait(lock, [this] {
                return closed_ || !queue_.empty();
            });
        }
        if (queue_.empty())
            return false;
        out = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return true;
    }

    /**
     * Non-blocking enqueue: the admission-control primitive — a caller
     * that must never block (e.g. a poll loop) parks the item itself
     * when the channel is full instead of stalling inside push().
     * @return false when the channel is full or closed (item dropped)
     */
    bool
    tryPush(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (closed_ || queue_.size() >= capacity_)
            return false;
        queue_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /**
     * Non-blocking dequeue.
     * @return false when no item was immediately available
     */
    bool
    tryPop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        out = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return true;
    }

    /** Close the channel, waking all blocked producers and consumers. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    /** @return items currently queued. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return queue_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<T> queue_;
    size_t capacity_;
    bool closed_ = false;
};

} // namespace atc::parallel

#endif // ATC_PARALLEL_CHANNEL_HPP_

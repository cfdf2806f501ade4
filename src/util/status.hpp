/**
 * @file
 * Error-handling primitives shared by all ATC libraries.
 *
 * Two regimes, per the gem5 fatal/panic distinction:
 *  - user-level failures (bad file, corrupt stream, invalid parameters)
 *    are reported through atc::util::Status / StatusOr or thrown as
 *    atc::util::Error, so callers can recover;
 *  - internal invariant violations use ATC_ASSERT and abort.
 */

#ifndef ATC_UTIL_STATUS_HPP_
#define ATC_UTIL_STATUS_HPP_

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace atc::util {

/** Exception type for user-level failures (I/O errors, corrupt data). */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Lightweight success/error result for APIs that prefer explicit
 * status propagation over exceptions.
 */
class Status
{
  public:
    /** Construct a success status. */
    Status() = default;

    /** Construct an error status carrying @p msg. */
    static Status
    error(std::string msg)
    {
        Status s;
        s.ok_ = false;
        s.msg_ = std::move(msg);
        return s;
    }

    /** @return true if the operation succeeded. */
    bool ok() const { return ok_; }

    /** @return the error message (empty on success). */
    const std::string &message() const { return msg_; }

    /** Throw Error if this status is not ok. */
    void
    orThrow() const
    {
        if (!ok_)
            throw Error(msg_);
    }

  private:
    bool ok_ = true;
    std::string msg_;
};

/**
 * A Status or a value of type @p T: the result of an operation that can
 * fail for user-level reasons. Either ok() and value() is valid, or
 * !ok() and status() carries the error.
 */
template <typename T>
class StatusOr
{
  public:
    /** Construct from an error status (must not be ok). */
    StatusOr(Status status) : status_(std::move(status))
    {
        if (status_.ok())
            status_ = Status::error("StatusOr built from an ok status");
    }

    /** Construct from a value. */
    StatusOr(T value) : value_(std::move(value)) {}

    /** @return true if a value is held. */
    bool ok() const { return value_.has_value(); }

    /** @return the status (ok when a value is held). */
    const Status &status() const { return status_; }

    /** @return the held value; throws Error if this is an error. */
    T &
    value()
    {
        status_.orThrow();
        return *value_;
    }

    /** @return the held value; throws Error if this is an error. */
    const T &
    value() const
    {
        status_.orThrow();
        return *value_;
    }

    /**
     * Move the held value out; throws Error if this is an error.
     * Afterwards ok() is false — a second value()/take() fails loudly
     * instead of handing back a hollow moved-from object.
     */
    T
    take()
    {
        status_.orThrow();
        T out = std::move(*value_);
        value_.reset();
        status_ = Status::error("StatusOr value already taken");
        return out;
    }

  private:
    Status status_;
    std::optional<T> value_;
};

/**
 * Run @p fn and report what it throws as an error Status: the one
 * boundary between the throwing internals and the Status API. Any
 * std::exception is converted (util::Error, and also std::bad_alloc or
 * std::length_error from a length the input lied about), so no failure
 * escapes an open()/try*() entry point. A void @p fn yields a Status,
 * any other a StatusOr of its result.
 */
template <typename F>
auto
toStatus(F &&fn)
{
    using R = std::invoke_result_t<F>;
    using Out = std::conditional_t<std::is_void_v<R>, Status, StatusOr<R>>;
    try {
        if constexpr (std::is_void_v<R>) {
            fn();
            return Status();
        } else {
            return Out(fn());
        }
    } catch (const std::exception &e) {
        return Out(Status::error(e.what()));
    }
}

[[noreturn]] void assertFail(const char *expr, const char *file, int line);

/** Raise a user-level error with a formatted message. */
[[noreturn]] inline void
raise(const std::string &msg)
{
    throw Error(msg);
}

} // namespace atc::util

/** Internal invariant check; aborts on violation (a bug, not user error). */
#define ATC_ASSERT(expr)                                                     \
    do {                                                                     \
        if (!(expr))                                                         \
            ::atc::util::assertFail(#expr, __FILE__, __LINE__);              \
    } while (0)

/** User-level validation; throws atc::util::Error on violation. */
#define ATC_CHECK(expr, msg)                                                 \
    do {                                                                     \
        if (!(expr))                                                         \
            ::atc::util::raise(std::string("check failed: ") + (msg));       \
    } while (0)

#endif // ATC_UTIL_STATUS_HPP_

/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by
 * the benchmark around its own calls into the library's public
 * functions, all from the benchmark's driving thread, so the recorder
 * needs no locking. Nothing is written until the run ends.
 */

#ifndef PERFBENCH_TRACER_HPP_
#define PERFBENCH_TRACER_HPP_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/** Monotonic nanoseconds (the one clock every span and timer uses). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since @p t0_ns. */
inline double
since(uint64_t t0_ns)
{
    return double(nowNs() - t0_ns) * 1e-9;
}

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span nested in the innermost open one; returns its id. */
    int64_t
    open(const char *name, uint64_t request = 0)
    {
        if (!on_)
            return -1;
        int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent, request});
        stack_.push_back(int64_t(spans_.size() - 1));
        return stack_.back();
    }

    /** Close the innermost open span. */
    void
    close()
    {
        if (!on_ || stack_.empty())
            return;
        spans_[size_t(stack_.back())].end = nowNs();
        stack_.pop_back();
    }

    /** Record a finished span under the innermost open one (served
     *  requests, whose lifetimes interleave inside the poll loop). */
    void
    add(const char *name, uint64_t start, uint64_t end, uint64_t request)
    {
        if (!on_)
            return;
        int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, start, end, parent, request});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as Chrome trace-event JSON. */
    bool
    writeChromeJson(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}\n",
                         i ? "," : "", s.name.c_str(), double(s.start) / 1e3,
                         double(s.end - s.start) / 1e3, i,
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.request));
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** RAII span: open in the constructor, close in the destructor. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP_

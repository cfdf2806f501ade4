#include "study/sample_plan.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "compress/codec.hpp"
#include "util/rng.hpp"

namespace atc::study {
namespace {

using util::Status;
using util::StatusOr;

std::string
numString(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

Status
checkKeys(const comp::CodecSpec &spec,
          std::initializer_list<const char *> known)
{
    for (const auto &[key, value] : spec.params) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            return Status::error("sample plan '" + spec.name +
                                 "': unknown parameter '" + key + "'");
    }
    return Status();
}

/** Parse one '+'-separated start value with optional k/m/g suffix. */
StatusOr<uint64_t>
parseStart(const std::string &text)
{
    if (text.empty())
        return Status::error("sample plan: empty window start");
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return Status::error("sample plan: bad window start '" + text +
                             "'");
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    uint64_t mult = 1;
    if (errno == ERANGE)
        return Status::error("sample plan: window start '" + text +
                             "' is out of range");
    if (*end) {
        switch (*end) {
          case 'k': case 'K': mult = 1ull << 10; break;
          case 'm': case 'M': mult = 1ull << 20; break;
          case 'g': case 'G': mult = 1ull << 30; break;
          default:
            return Status::error("sample plan: bad window start '" +
                                 text + "'");
        }
        if (end[1] != '\0')
            return Status::error("sample plan: bad window start '" +
                                 text + "'");
    }
    if (v > UINT64_MAX / mult)
        return Status::error("sample plan: window start '" + text +
                             "' is out of range");
    return static_cast<uint64_t>(v) * mult;
}

struct CommonParams
{
    uint64_t windows = 32;
    uint64_t len = 65536;
    uint64_t warmup = 0;
    bool warmup_explicit = false;
};

StatusOr<CommonParams>
commonParams(const comp::CodecSpec &spec)
{
    CommonParams p;
    auto windows = spec.sizeParam("windows", 32);
    auto len = spec.sizeParam("len", 65536);
    for (const auto *q : {&windows, &len})
        if (!q->ok())
            return q->status();
    p.windows = windows.value();
    p.len = len.value();
    // warmup=0 is legal (no warm-up), so sizeParam's zero-rejection
    // cannot be used directly; probe presence first.
    if (const std::string *w = spec.find("warmup")) {
        p.warmup_explicit = true;
        if (*w == "0") {
            p.warmup = 0;
        } else {
            auto warmup = spec.sizeParam("warmup", 0);
            if (!warmup.ok())
                return warmup.status();
            p.warmup = warmup.value();
        }
    } else {
        p.warmup = p.len / 8;
    }
    if (p.windows == 0)
        return Status::error("sample plan: windows must be >= 1");
    if (p.len == 0)
        return Status::error("sample plan: len must be >= 1");
    return p;
}

} // namespace

StatusOr<SamplePlan>
SamplePlan::build(const std::string &spec_string, uint64_t trace_records)
{
    auto parsed = comp::CodecSpec::parse(spec_string);
    if (!parsed.ok())
        return parsed.status();
    const comp::CodecSpec &spec = parsed.value();

    SamplePlan plan;

    if (spec.name == "systematic" || spec.name == "uniform") {
        Status keys = checkKeys(
            spec, spec.name == "uniform"
                      ? std::initializer_list<const char *>{
                            "windows", "len", "warmup", "seed"}
                      : std::initializer_list<const char *>{
                            "windows", "len", "warmup"});
        if (!keys.ok())
            return keys;
        auto common = commonParams(spec);
        if (!common.ok())
            return common.status();
        const CommonParams &p = common.value();
        uint64_t wlen = p.warmup + p.len;
        if (wlen > trace_records)
            return Status::error(
                "sample plan: window length " + numString(wlen) +
                " (warmup+len) exceeds the trace (" +
                numString(trace_records) + " records)");
        // A plan never fetches more records than the trace holds, which
        // also bounds what it allocates. Divide: the product can wrap.
        if (p.windows > trace_records / wlen)
            return Status::error(
                "sample plan: " + numString(p.windows) + " " + spec.name +
                " windows of " + numString(wlen) +
                " records fetch more than the trace (" +
                numString(trace_records) + " records)");

        if (spec.name == "systematic") {
            uint64_t stride = trace_records / p.windows;
            for (uint64_t i = 0; i < p.windows; ++i)
                plan.windows_.push_back(
                    {i * stride, p.warmup, p.len});
            plan.spec_ = "systematic:windows=" + numString(p.windows) +
                         ",len=" + numString(p.len) +
                         ",warmup=" + numString(p.warmup);
        } else {
            uint64_t seed = 1;
            if (const std::string *s = spec.find("seed")) {
                auto v = parseStart(*s);
                if (!v.ok())
                    return v.status();
                seed = v.value();
            }
            util::Rng rng(seed ^ 0x5a17b3d5c001f00dull);
            std::vector<uint64_t> starts(p.windows);
            for (uint64_t &s : starts)
                s = rng.below(trace_records - wlen + 1);
            std::sort(starts.begin(), starts.end());
            for (uint64_t s : starts)
                plan.windows_.push_back({s, p.warmup, p.len});
            plan.spec_ = "uniform:windows=" + numString(p.windows) +
                         ",len=" + numString(p.len) +
                         ",warmup=" + numString(p.warmup) +
                         ",seed=" + numString(seed);
        }
        return plan;
    }

    if (spec.name == "explicit") {
        Status keys = checkKeys(spec, {"at", "len", "warmup"});
        if (!keys.ok())
            return keys;
        auto common = commonParams(spec);
        if (!common.ok())
            return common.status();
        const CommonParams &p = common.value();
        uint64_t wlen = p.warmup + p.len;
        const std::string *at = spec.find("at");
        if (!at || at->empty())
            return Status::error(
                "sample plan: explicit needs at=START[+START...]");
        std::vector<uint64_t> starts;
        size_t pos = 0;
        while (pos <= at->size()) {
            size_t plus = at->find('+', pos);
            if (plus == std::string::npos)
                plus = at->size();
            auto v = parseStart(at->substr(pos, plus - pos));
            if (!v.ok())
                return v.status();
            starts.push_back(v.value());
            pos = plus + 1;
        }
        std::string canonical_at;
        for (uint64_t s : starts) {
            if (wlen > trace_records || s > trace_records - wlen)
                return Status::error(
                    "sample plan: window at " + numString(s) +
                    " runs past the trace (" +
                    numString(trace_records) + " records)");
            plan.windows_.push_back({s, p.warmup, p.len});
            if (!canonical_at.empty())
                canonical_at += '+';
            canonical_at += numString(s);
        }
        plan.spec_ = "explicit:at=" + canonical_at +
                     ",len=" + numString(p.len) +
                     ",warmup=" + numString(p.warmup);
        return plan;
    }

    return Status::error("unknown sample plan '" + spec.name +
                         "' (known: systematic, uniform, explicit)");
}

uint64_t
SamplePlan::measuredRecords() const
{
    uint64_t total = 0;
    for (const SampleWindow &w : windows_)
        total += w.measure;
    return total;
}

uint64_t
SamplePlan::fetchedRecords() const
{
    uint64_t total = 0;
    for (const SampleWindow &w : windows_)
        total += w.length();
    return total;
}

} // namespace atc::study

/**
 * @file
 * Old names of the threaded writer and reader, kept header-only for
 * one remaining user: the end-to-end benchmark (perfbench/). Threads
 * are an AtcWriter/AtcReader constructor argument now, so these are
 * only constructors that resolve popt.threads (0 = hardware
 * concurrency) and forward. Delete this header once perfbench moves
 * to AtcWriter/AtcReader; nothing else may include it.
 */

#ifndef ATC_PARALLEL_PARALLEL_ATC_HPP_
#define ATC_PARALLEL_PARALLEL_ATC_HPP_

#include <string>

#include "atc/atc.hpp"
#include "parallel/thread_pool.hpp"

namespace atc::parallel {

/** Worker count of the old names; 0 = hardware concurrency. */
struct ParallelOptions
{
    size_t threads = 0;
};

/** core::AtcWriter on resolveThreads(popt.threads) workers. */
class ParallelAtcWriter : public core::AtcWriter
{
  public:
    ParallelAtcWriter(const std::string &dir,
                      const core::AtcOptions &options,
                      const ParallelOptions &popt = {})
        : core::AtcWriter(dir, options, resolveThreads(popt.threads))
    {}
};

/** core::AtcReader on resolveThreads(popt.threads) workers. */
class ParallelAtcReader : public core::AtcReader
{
  public:
    explicit ParallelAtcReader(const std::string &dir,
                               const ParallelOptions &popt = {})
        : core::AtcReader(dir, core::kDefaultDecodedCacheBytes,
                          resolveThreads(popt.threads))
    {}
};

} // namespace atc::parallel

#endif // ATC_PARALLEL_PARALLEL_ATC_HPP_

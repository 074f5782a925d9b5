#ifndef DHYFD_UTIL_DEADLINE_H_
#define DHYFD_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>

#include "util/cancellation.h"

namespace dhyfd {

/// Cooperative time limit for discovery runs, mirroring the paper's 1-hour
/// "TL" budget in Table II. Algorithms poll expired() at loop boundaries and
/// abandon the run (flagging stats.timed_out) when it fires. A limit of 0
/// means no deadline.
///
/// The constructor also captures the thread's current CancelToken (see
/// CancelScope in util/cancellation.h): a cancelled token makes expired()
/// fire immediately, so the service layer's job cancellation rides the same
/// polls as the time limit.
///
/// expired() may be polled from many threads at once (the sharded
/// validation loops share one Deadline per run), so its cache is a relaxed
/// atomic: it only ever goes false -> true, and a poll that misses a
/// concurrent store just reads the clock itself.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : enabled_(seconds > 0),
        cancel_(CancelScope::Current()),
        end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds > 0 ? seconds : 0))) {}

  bool expired() const {
    if (expired_cache_.load(std::memory_order_relaxed)) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      expired_cache_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (!enabled_) return false;
    // steady_clock::now() is a ~20 ns vDSO call on Linux: cheap enough to
    // poll unconditionally, and call sites vary wildly in how much work
    // sits between polls (stride-caching went stale on slow call sites).
    if (Clock::now() < end_) return false;
    expired_cache_.store(true, std::memory_order_relaxed);
    return true;
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  const CancelToken* cancel_;
  Clock::time_point end_;
  mutable std::atomic<bool> expired_cache_{false};
};

}  // namespace dhyfd

#endif  // DHYFD_UTIL_DEADLINE_H_

#ifndef DHYFD_UTIL_CHUNK_RUNNER_H_
#define DHYFD_UTIL_CHUNK_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace dhyfd {

/// Scratch of a loop whose chunks need no per-worker state.
struct NoScratch {};
/// Result of a loop whose chunks write into caller-owned slots.
struct NoResult {};

/// The one parallel loop of the codebase: a loop over [0, n) of independent
/// items, run over a job's pool. Built once per job from the job's pool and
/// degree; every per-level loop of discovery, ranking and the top-k walk is
/// a run() of one.
///
/// run() cuts [0, n) into min(n, 8 x threads) contiguous chunks — over-split
/// because an item's cost follows its partitions' sizes, so a worker that
/// drew cheap chunks claims more — and starts min(chunks, threads) worker
/// loops with ThreadPool::run_shards, help-first, which claim chunks from
/// one shared cursor. The chunk boundaries are a function of (n, threads)
/// only and the results come back in chunk order, so a caller that
/// concatenates them reproduces the sequential loop's output at any degree
/// and under any schedule.
///
/// Each worker loop owns one Scratch (a refiner's counting arena, an
/// intersector's probe table), built from `make_scratch` when that loop
/// claims its first chunk and kept for later runs. No two running chunks
/// share a scratch, and a runner builds at most `threads` of them — only one
/// when the pool lends no helpers and the caller drains every chunk.
///
/// Without a pool, or at threads <= 1, a loop is one chunk run on the
/// caller, with no shard span.
template <typename Scratch = NoScratch>
class ChunkRunner {
 public:
  using MakeScratch = std::function<std::unique_ptr<Scratch>()>;

  ChunkRunner(ThreadPool* pool, int threads,
              MakeScratch make_scratch = [] { return std::make_unique<Scratch>(); })
      : pool_(pool),
        threads_(pool != nullptr ? static_cast<std::size_t>(std::max(1, threads)) : 1),
        make_scratch_(std::move(make_scratch)),
        scratch_(threads_) {}

  /// The effective degree: 1 without a pool.
  int threads() const { return static_cast<int>(threads_); }

  /// Calls body(scratch, result, begin, end) once per chunk and returns the
  /// chunk results in chunk order. Shards record `span` (a string literal;
  /// nullptr = the pool's default). If a chunk throws, no further chunk is
  /// claimed and the first error is rethrown on the caller after the join.
  template <typename Result, typename Body>
  std::vector<Result> run(std::size_t n, const char* span, const Body& body) {
    const std::size_t chunks =
        threads_ > 1 ? std::min(n, kChunksPerThread * threads_) : std::min<std::size_t>(n, 1);
    std::vector<Result> out(chunks);
    if (chunks <= 1) {
      if (chunks == 1) body(scratch(0), out[0], std::size_t{0}, n);
      return out;
    }
    std::atomic<std::size_t> next{0};
    pool_->run_shards(
        static_cast<int>(threads_), std::min(chunks, threads_),
        [&](std::size_t worker) {
          for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
               c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
            auto [begin, end] = ThreadPool::ShardRange(n, chunks, c);
            try {
              body(scratch(worker), out[c], begin, end);
            } catch (...) {
              next.store(chunks, std::memory_order_relaxed);
              throw;
            }
          }
        },
        span);
    return out;
  }

 private:
  static constexpr std::size_t kChunksPerThread = 8;

  // Worker loop w alone touches slot w, and run_shards' join orders one
  // run's use before the next's, so building on first claim needs no lock.
  Scratch& scratch(std::size_t worker) {
    if (!scratch_[worker]) scratch_[worker] = make_scratch_();
    return *scratch_[worker];
  }

  ThreadPool* pool_;
  std::size_t threads_;
  MakeScratch make_scratch_;
  std::vector<std::unique_ptr<Scratch>> scratch_;
};

}  // namespace dhyfd

#endif  // DHYFD_UTIL_CHUNK_RUNNER_H_

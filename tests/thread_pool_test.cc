#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/cost_ledger.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/chunk_runner.h"

namespace dhyfd {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100);
}

TEST(ThreadPoolTest, SingleThreadPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.shutdown();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ShutdownUnderLoadDrainsQueue) {
  // Many short tasks still queued when shutdown starts: every one must run
  // exactly once, and shutdown must not hang.
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1);
      });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRefused) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
  EXPECT_FALSE(pool.try_submit([] {}));
  EXPECT_EQ(pool.tasks_executed(), 0);
}

TEST(ThreadPoolTest, DestructorJoinsWorkers) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([&count] { count.fetch_add(1); });
  }  // ~ThreadPool must finish all 20 before returning
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, BoundedQueueTrySubmitRefusesWhenFull) {
  ThreadPool pool(1, /*max_queue=*/2);
  std::atomic<bool> release{false};
  // Occupy the single worker so queued tasks pile up.
  pool.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // Wait until the worker has dequeued the blocker (queue drained to 0).
  while (pool.queue_depth() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(pool.try_submit([] {}));
  EXPECT_TRUE(pool.try_submit([] {}));
  EXPECT_FALSE(pool.try_submit([] {}));  // queue full
  release.store(true);
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 3);
}

TEST(ThreadPoolTest, BoundedQueueSubmitBlocksThenProceeds) {
  ThreadPool pool(1, /*max_queue=*/1);
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (pool.queue_depth() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pool.submit([&done] { done.fetch_add(1); });  // fills the queue
  // This submit must block until the blocker finishes, then succeed.
  std::thread producer([&pool, &done] {
    EXPECT_TRUE(pool.submit([&done] { done.fetch_add(1); }));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);  // still blocked behind the busy worker
  release.store(true);
  producer.join();
  pool.shutdown();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolTest, ExceptionsAreCapturedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([] { throw std::runtime_error("task boom"); });
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);  // workers survived the throwing tasks
  EXPECT_EQ(pool.exceptions_caught(), 10);
  EXPECT_EQ(pool.first_exception_message(), "task boom");
  EXPECT_EQ(pool.tasks_executed(), 20);
}

TEST(ThreadPoolTest, CustomExceptionHandlerReceivesException) {
  ThreadPool pool(1);
  std::atomic<int> handled{0};
  std::string message;
  pool.set_exception_handler([&handled, &message](std::exception_ptr e) {
    handled.fetch_add(1);
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      message = ex.what();
    }
  });
  pool.submit([] { throw std::runtime_error("custom"); });
  pool.shutdown();
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(message, "custom");
  EXPECT_EQ(pool.exceptions_caught(), 0);  // default handler bypassed
}

TEST(ThreadPoolTest, ManyProducersManyConsumers) {
  ThreadPool pool(4, /*max_queue=*/8);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.shutdown();
  EXPECT_EQ(count.load(), 400);
}

// ------------------------------------------------------- run_shards et al.

TEST(ThreadPoolShardTest, ShardRangePartitionsExactly) {
  // Every index lands in exactly one shard, shards are contiguous, and the
  // first n % shards shards carry the remainder.
  for (std::size_t n : {1u, 2u, 7u, 8u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u}) {
      if (shards > n) continue;
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        auto [begin, end] = ThreadPool::ShardRange(n, shards, s);
        EXPECT_EQ(begin, prev_end) << "n=" << n << " shards=" << shards;
        EXPECT_LE(end - begin, n / shards + 1);
        EXPECT_GE(end - begin, n / shards);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ChunkRunnerTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  ChunkRunner<> runner(&pool, 4);
  constexpr std::size_t kN = 1000;
  // Plain ints are safe here because chunk ranges are disjoint; were the
  // chunking ever to hand an index to two chunks, TSan would flag the race.
  std::vector<int> visits(kN, 0);
  runner.run<NoResult>(kN, nullptr,
                       [&visits](NoScratch&, NoResult&, std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) ++visits[i];
                       });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i], 1);
}

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The (begin, end) range of every chunk of a run over [0, n), in the order
/// run() returns them.
Ranges ChunkRanges(ThreadPool* pool, int degree, std::size_t n) {
  ChunkRunner<> runner(pool, degree);
  return runner.run<std::pair<std::size_t, std::size_t>>(
      n, nullptr, [](NoScratch&, std::pair<std::size_t, std::size_t>& range,
                     std::size_t b, std::size_t e) { range = {b, e}; });
}

TEST(ChunkRunnerTest, ChunkingIsDegreeDeterministic) {
  // The chunk boundaries at degree P are a pure function of (n, P) — this is
  // what makes parallel covers bit-identical: the caller concatenates chunk
  // results whose boundaries never move between runs.
  ThreadPool pool(4);
  EXPECT_EQ(ChunkRanges(&pool, 4, 103), ChunkRanges(&pool, 4, 103));
  EXPECT_EQ(ChunkRanges(&pool, 4, 103).size(), 32u);
  EXPECT_EQ(ChunkRanges(&pool, 1, 103), (Ranges{{0, 103}}));
  // No pool is degree 1 whatever the requested degree.
  EXPECT_EQ(ChunkRanges(nullptr, 4, 103), (Ranges{{0, 103}}));
}

TEST(ChunkRunnerTest, ResultsComeBackInChunkOrder) {
  // Each chunk records the indices it visited; concatenated in the returned
  // order they must be exactly 0..n-1, at every degree (8 exceeds the pool:
  // helpers are capped by idle workers, the chunking is not).
  ThreadPool pool(4);
  for (int degree : {1, 2, 3, 4, 8}) {
    ChunkRunner<> runner(&pool, degree);
    for (std::size_t n : {0u, 1u, 3u, 7u, 1000u}) {
      std::vector<std::vector<std::size_t>> chunks =
          runner.run<std::vector<std::size_t>>(
              n, nullptr, [](NoScratch&, std::vector<std::size_t>& seen,
                             std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i) seen.push_back(i);
              });
      std::size_t want_chunks =
          degree > 1 ? std::min<std::size_t>(n, 8 * static_cast<std::size_t>(degree))
                     : std::min<std::size_t>(n, 1);
      EXPECT_EQ(chunks.size(), want_chunks) << "degree=" << degree << " n=" << n;
      std::vector<std::size_t> order;
      for (const auto& chunk : chunks) {
        EXPECT_FALSE(chunk.empty());
        order.insert(order.end(), chunk.begin(), chunk.end());
      }
      ASSERT_EQ(order.size(), n) << "degree=" << degree;
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
    }
  }
}

TEST(ChunkRunnerTest, RethrowsChunkErrorOnCaller) {
  ThreadPool pool(4);
  ChunkRunner<> runner(&pool, 4);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id caught_on;
  std::string message;
  try {
    runner.run<NoResult>(100, nullptr,
                         [](NoScratch&, NoResult&, std::size_t b, std::size_t e) {
                           if (b <= 50 && 50 < e) throw std::runtime_error("chunk boom");
                         });
  } catch (const std::runtime_error& e) {
    caught_on = std::this_thread::get_id();
    message = e.what();
  }
  EXPECT_EQ(caught_on, caller);
  EXPECT_EQ(message, "chunk boom");
  // The runner and its pool survive: a later run still covers every index.
  std::atomic<std::size_t> visited{0};
  runner.run<NoResult>(100, nullptr,
                       [&visited](NoScratch&, NoResult&, std::size_t b, std::size_t e) {
                         visited.fetch_add(e - b);
                       });
  EXPECT_EQ(visited.load(), 100u);
}

TEST(ChunkRunnerTest, NestedInPoolTaskDoesNotDeadlock) {
  // Jobs run on pool workers and their loops fan out over the same pool:
  // with both workers busy, each inner run's caller drains every chunk.
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  std::atomic<int> outer_done{0};
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pool.submit([&pool, &inner_total, &outer_done] {
      ChunkRunner<> runner(&pool, 2);
      runner.run<NoResult>(
          64, nullptr, [&inner_total](NoScratch&, NoResult&, std::size_t b, std::size_t e) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            inner_total.fetch_add(e - b);
          });
      outer_done.fetch_add(1);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(outer_done.load(), 4);
  EXPECT_EQ(inner_total.load(), 4u * 64u);
}

/// Scratch that flags any two chunks using it at once.
struct GuardedScratch {
  std::atomic<int> users{0};
};

TEST(ChunkRunnerTest, SaturatedPoolBuildsOneScratch) {
  // Both workers are held, so the pool lends no helper: the caller runs all
  // four worker loops, and only the first, which drains the cursor, claims a
  // chunk and builds a scratch.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.submit([&release] {
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
  }
  std::atomic<int> built{0};
  ChunkRunner<GuardedScratch> runner(&pool, 4, [&built] {
    built.fetch_add(1);
    return std::make_unique<GuardedScratch>();
  });
  runner.run<NoResult>(100, nullptr, [](GuardedScratch&, NoResult&, std::size_t, std::size_t) {});
  EXPECT_EQ(built.load(), 1);
  release.store(true);
}

TEST(ChunkRunnerTest, IdleWorkersBuildAtMostOneScratchEach) {
  ThreadPool pool(4);
  std::atomic<int> built{0};
  ChunkRunner<GuardedScratch> runner(&pool, 4, [&built] {
    built.fetch_add(1);
    return std::make_unique<GuardedScratch>();
  });
  std::atomic<int> shared{0};
  for (int round = 0; round < 5; ++round) {
    runner.run<NoResult>(
        200, nullptr, [&shared](GuardedScratch& s, NoResult&, std::size_t, std::size_t) {
          if (s.users.fetch_add(1) != 0) shared.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          s.users.fetch_sub(1);
        });
  }
  EXPECT_GE(built.load(), 1);
  EXPECT_LE(built.load(), 4);
  EXPECT_EQ(shared.load(), 0);  // no two running chunks shared a scratch
}

TEST(ThreadPoolShardTest, RunShardsSequentialWhenDegreeOne) {
  // parallelism <= 1 must enlist no helpers: shards run on the caller, in
  // order, so a degree-1 run is exactly the sequential code path.
  ThreadPool pool(4);
  std::vector<std::size_t> order;
  pool.run_shards(1, 5, [&order](std::size_t s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.tasks_executed(), 0);  // no helper tickets were queued
}

TEST(ThreadPoolShardTest, RunShardsRethrowsFirstShardError) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_shards(4, 16,
                      [](std::size_t s) {
                        if (s == 3) throw std::runtime_error("shard boom");
                      }),
      std::runtime_error);
  // The pool survives: a later batch still runs to completion.
  std::atomic<int> count{0};
  pool.run_shards(4, 8, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolShardTest, NestedRunShardsFromWorkerDoesNotDeadlock) {
  // A pool task fanning out over the same (fully busy) pool must complete:
  // the inner run_shards caller drains every shard itself when no worker is
  // idle. This is the scheduler's shape — jobs run on pool workers and each
  // job's discovery shards fan out over the same pool.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_done{0};
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pool.submit([&pool, &inner_total, &outer_done] {
      pool.run_shards(2, 6, [&inner_total](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        inner_total.fetch_add(1);
      });
      outer_done.fetch_add(1);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(outer_done.load(), 4);
  EXPECT_EQ(inner_total.load(), 24);
}

TEST(ThreadPoolShardTest, TraceIdReachesEveryShard) {
  // Shards observe the caller's trace id whether they ran on the caller or
  // on a helper (helper tickets are wrapped by CaptureTraceId).
  ThreadPool pool(4);
  constexpr std::uint64_t kTraceId = 7777;
  TraceIdScope scope(kTraceId);
  std::vector<std::uint64_t> seen(16, 0);
  pool.run_shards(4, 16, [&seen](std::size_t s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seen[s] = CurrentTraceId();
  });
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_EQ(seen[s], kTraceId) << "shard " << s;
  }
}

/// Records every ObsAdd by name; installed on the caller thread only, so
/// any count it sees from helper shards must have come through the
/// run_shards delta relay.
class RecordingSink : public ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    counts_[name] += delta;
  }
  std::int64_t count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> counts_;
};

TEST(ThreadPoolShardTest, HelperCountersRelayToCallerSink) {
  ThreadPool pool(4);
  RecordingSink sink;
  {
    ObsScope scope(&sink);
    pool.run_shards(4, 32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ObsAdd("discover.validator.calls", 3);
    });
  }
  // All 32 shards' counters arrive regardless of which thread ran them.
  EXPECT_EQ(sink.count("discover.validator.calls"), 32 * 3);
}

TEST(ThreadPoolShardTest, CostLedgerAggregatesAcrossHelpers) {
  // A CostLedgerScope around a parallel batch must absorb helper-side
  // classified counters (via the relay) on top of the caller's own.
  ThreadPool pool(4);
  CostLedger ledger;
  {
    CostLedgerScope scope(&ledger);
    pool.run_shards(4, 32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ObsAdd("discover.validator.calls", 1);
      ObsAdd("partition.intersections", 2);
    });
  }
  EXPECT_EQ(ledger.validations, 32);
  EXPECT_EQ(ledger.partitions_built, 64);
  // The scope charges the caller's thread clock; helper CPU arrives as
  // pool.shard_cpu_ns deltas. Both are >= 0 and summed into cpu_ns.
  EXPECT_GE(ledger.cpu_ns, 0);
}

}  // namespace
}  // namespace dhyfd

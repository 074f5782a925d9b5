// Trace-context propagation through the concurrency layers: a trace id set
// at submission must follow the work onto whichever worker thread runs it,
// and the service layers must surface each job's queue-wait / run /
// cancellation phases as spans under that id. Runs under ThreadSanitizer in
// CI, so it doubles as the race check for the lock-free tracer buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "datagen/benchmark_data.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "relation/csv.h"
#include "service/service.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

std::vector<TraceEvent> EventsForTraceId(std::uint64_t trace_id) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Tracer::Global().drain()) {
    if (e.trace_id == trace_id) out.push_back(e);
  }
  return out;
}

bool HasSpan(const std::vector<TraceEvent>& events, const std::string& name,
             char phase = 'X') {
  for (const TraceEvent& e : events) {
    if (e.phase == phase && e.name != nullptr && name == e.name) return true;
  }
  return false;
}

TEST(ThreadPoolPropagationTest, SubmitCarriesCurrentTraceId) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> seen{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  {
    TraceIdScope scope(1234);
    pool.submit([&] {
      seen = CurrentTraceId();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_EQ(seen.load(), 1234u);
}

TEST(ThreadPoolPropagationTest, NoContextMeansNoTraceId) {
  ThreadPool pool(1);
  std::atomic<std::uint64_t> seen{99};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ASSERT_EQ(CurrentTraceId(), 0u);
  pool.submit([&] {
    seen = CurrentTraceId();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(seen.load(), 0u);
}

TEST(ThreadPoolPropagationTest, WorkerContextDoesNotLeakToNextTask) {
  // One worker runs a traced task, then an untraced one: the TraceIdScope
  // must be unwound between tasks.
  ThreadPool pool(1);
  std::atomic<std::uint64_t> first{0};
  std::atomic<std::uint64_t> second{99};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  auto mark_done = [&] {
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    cv.notify_all();
  };
  {
    TraceIdScope scope(55);
    pool.submit([&] {
      first = CurrentTraceId();
      mark_done();
    });
  }
  pool.submit([&] {
    second = CurrentTraceId();
    mark_done();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 2; });
  EXPECT_EQ(first.load(), 55u);
  EXPECT_EQ(second.load(), 0u);
}

TEST(SchedulerPropagationTest, NoTracingMeansZeroTraceId) {
  ASSERT_FALSE(Tracer::Global().enabled());
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", GenerateBenchmark("abalone", 200));
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});
  JobHandlePtr h = scheduler.submit({.dataset = "t"});
  h->wait();
  EXPECT_EQ(h->state(), JobState::kDone);
  EXPECT_EQ(h->trace_id(), 0u);
}

TEST(SchedulerPropagationTest, JobTreeHasQueueWaitRunAndCounterSeries) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", GenerateBenchmark("abalone", 300));
  Tracer& tracer = Tracer::Global();
  tracer.start();
  JobHandlePtr h;
  {
    JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});
    ProfileJob job;
    job.dataset = "t";
    job.options.algorithm = "dhyfd";
    h = scheduler.submit(job);
    h->wait();
  }
  tracer.stop();
  ASSERT_EQ(h->state(), JobState::kDone);
  ASSERT_NE(h->trace_id(), 0u);

  std::vector<TraceEvent> events = EventsForTraceId(h->trace_id());
  EXPECT_TRUE(HasSpan(events, "svc.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "svc.job.run"));
  EXPECT_TRUE(HasSpan(events, "profile.discover"));
  EXPECT_TRUE(HasSpan(events, "discover.sampling"));
  EXPECT_TRUE(HasSpan(events, "discover.validation"));
  // The per-job TelemetrySink tags algorithm counter series with the job's
  // trace id; a dhyfd run exercises sampling, validation, and induction.
  std::set<std::string> counter_series;
  for (const TraceEvent& e : events) {
    if (e.phase == 'C' && e.name != nullptr) counter_series.insert(e.name);
  }
  EXPECT_GE(counter_series.size(), 5u) << "got " << counter_series.size();
  // The same counters also landed in the shared registry.
  EXPECT_GT(metrics.counter("discover.validator.calls").value(), 0);
}

TEST(SchedulerPropagationTest, CancelledQueuedJobEmitsMarker) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", GenerateBenchmark("abalone", 200));
  Tracer& tracer = Tracer::Global();
  tracer.start();

  std::mutex mu;
  std::condition_variable cv;
  bool blocker_started = false;
  bool release_blocker = false;

  JobHandlePtr victim;
  {
    JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
    // Job 1 occupies the only worker until released, guaranteeing the
    // victim is cancelled while still queued.
    ProfileJob blocker;
    blocker.dataset = "t";
    blocker.options.stage_hook = [&](ProfileStage, double) {
      std::unique_lock<std::mutex> lock(mu);
      blocker_started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release_blocker; });
    };
    JobHandlePtr b = scheduler.submit(blocker);
    victim = scheduler.submit({.dataset = "t"});
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return blocker_started; });
    }
    victim->cancel();
    {
      std::lock_guard<std::mutex> lock(mu);
      release_blocker = true;
      cv.notify_all();
    }
    scheduler.wait_all();
    EXPECT_EQ(b->state(), JobState::kDone);
  }
  tracer.stop();
  EXPECT_EQ(victim->state(), JobState::kCancelled);
  ASSERT_NE(victim->trace_id(), 0u);
  std::vector<TraceEvent> events = EventsForTraceId(victim->trace_id());
  EXPECT_TRUE(HasSpan(events, "svc.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "svc.job.cancelled", 'i'));
  EXPECT_FALSE(HasSpan(events, "svc.job.run"));
}

TEST(LiveStorePropagationTest, BatchTreeHasQueueWaitAndBatchSpans) {
  RawTable table;
  table.header = {"a", "b", "c"};
  for (int i = 0; i < 40; ++i) {
    table.rows.push_back({std::to_string(i), std::to_string(i % 4),
                          std::to_string((i % 4) * 3)});
  }
  MetricsRegistry metrics;
  LiveStore store(&metrics, 2);
  store.create("t", table);  // initial discovery runs untraced

  Tracer& tracer = Tracer::Global();
  tracer.start();
  UpdateBatch batch;
  batch.inserts.push_back({"100", "1", "7"});
  batch.deletes.push_back(0);
  UpdateJobHandlePtr h = store.submit({"t", batch});
  h->wait();
  tracer.stop();

  EXPECT_EQ(h->state(), UpdateJobState::kDone);
  ASSERT_NE(h->trace_id(), 0u);
  std::vector<TraceEvent> events = EventsForTraceId(h->trace_id());
  EXPECT_TRUE(HasSpan(events, "incr.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "incr.batch"));
  // Batch counters flow through the per-batch sink into the registry.
  EXPECT_GT(metrics.counter("incr.pairs_compared").value(), 0);
}

TEST(WirePropagationTest, ClientTraceIdSpansEveryServerLayer) {
  // The full causal chain over the wire: a TraceIdScope on the client
  // thread stamps the request frame's trace id, and every server-side
  // layer — poll loop, ops pool, job scheduler, live store — must tag its
  // spans with that id, so one merged Chrome trace shows the request end
  // to end.
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});
  LiveStore live(&metrics, 2);
  net::ProfilingServer server(&scheduler, &live, &datasets, &metrics, {});
  server.start();

  Tracer& tracer = Tracer::Global();
  tracer.start();
  constexpr std::uint64_t kTraceId = 424242;
  {
    net::BlockingClient client("127.0.0.1", server.port(), "traced", 30);
    TraceIdScope scope(kTraceId);
    client.register_dataset(
        "aba", WriteCsvString(GenerateBenchmark("abalone", 120)),
        /*live=*/true);
    net::SubmitDiscoveryMsg submit;
    submit.dataset = "aba";
    client.submit_discovery(submit);
    client.query_cover("aba", 3);
    net::ApplyUpdateMsg update;
    update.dataset = "aba";
    RawTable extra = GenerateBenchmark("abalone", 125);
    for (int i = 120; i < 125; ++i) update.inserts.push_back(extra.rows[i]);
    client.apply_update(update);
    client.goodbye();
  }
  server.shutdown();
  live.shutdown();
  scheduler.shutdown();
  tracer.stop();

  std::vector<TraceEvent> events = EventsForTraceId(kTraceId);
  // Client side of the wire.
  EXPECT_TRUE(HasSpan(events, "net.client.call"));
  // Server poll loop: per-request dispatch plus the whole-RPC envelope.
  EXPECT_TRUE(HasSpan(events, "net.dispatch"));
  EXPECT_TRUE(HasSpan(events, "net.rpc"));
  // Ops pool (register_dataset / query_cover).
  EXPECT_TRUE(HasSpan(events, "net.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "net.ops.run"));
  // Job scheduler strand (submit_discovery).
  EXPECT_TRUE(HasSpan(events, "svc.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "svc.job.run"));
  EXPECT_TRUE(HasSpan(events, "profile.discover"));
  // Live store strand (apply_update).
  EXPECT_TRUE(HasSpan(events, "incr.queue_wait"));
  EXPECT_TRUE(HasSpan(events, "incr.batch"));
}

TEST(WirePropagationTest, ClientMintsTraceIdWhenNoScopeIsActive) {
  // Without an ambient TraceIdScope the client mints a fresh id per call
  // and propagates that — the server side still joins the same tree.
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  LiveStore live(&metrics, 1);
  net::ProfilingServer server(&scheduler, &live, &datasets, &metrics, {});
  server.start();

  Tracer& tracer = Tracer::Global();
  tracer.start();
  {
    net::BlockingClient client("127.0.0.1", server.port(), "untraced", 30);
    ASSERT_EQ(CurrentTraceId(), 0u);
    client.register_dataset(
        "aba", WriteCsvString(GenerateBenchmark("abalone", 60)),
        /*live=*/true);
    client.query_cover("aba", 2);
    client.goodbye();
  }
  server.shutdown();
  live.shutdown();
  scheduler.shutdown();
  tracer.stop();

  std::vector<TraceEvent> all = Tracer::Global().drain();
  std::uint64_t client_trace = 0;
  for (const TraceEvent& e : all) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    if (std::string("net.client.call") == e.name) client_trace = e.trace_id;
  }
  ASSERT_NE(client_trace, 0u);
  std::vector<TraceEvent> events;
  for (const TraceEvent& e : all) {
    if (e.trace_id == client_trace) events.push_back(e);
  }
  EXPECT_TRUE(HasSpan(events, "net.dispatch"));
  EXPECT_TRUE(HasSpan(events, "net.rpc"));
}

TEST(LiveStorePropagationTest, NoTracingMeansZeroTraceId) {
  ASSERT_FALSE(Tracer::Global().enabled());
  RawTable table;
  table.header = {"a", "b"};
  for (int i = 0; i < 10; ++i) {
    table.rows.push_back({std::to_string(i), std::to_string(i % 2)});
  }
  MetricsRegistry metrics;
  LiveStore store(&metrics, 1);
  store.create("t", table);
  UpdateBatch batch;
  batch.inserts.push_back({"99", "1"});
  UpdateJobHandlePtr h = store.submit({"t", batch});
  h->wait();
  EXPECT_EQ(h->state(), UpdateJobState::kDone);
  EXPECT_EQ(h->trace_id(), 0u);
}

}  // namespace
}  // namespace dhyfd

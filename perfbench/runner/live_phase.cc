// Phase "live": a few live datasets read while they change, under an open
// loop. Requests go out on a seeded schedule whether or not replies have
// arrived — pipelined query_cover reads, apply_update batches at a fixed
// rate and submit_query top-k jobs — over raw frames on one connection per
// kind of request. The phase's own thread sends every request; each
// connection has a receiver thread. Latency is timed from when a request was
// due, so a read stuck behind an update's profile lock, and every read due
// while it was stuck, shows. The phase ends with an offered-rate ladder of
// reads that finds the highest rate meeting the p99 limit.

#include <atomic>
#include <cstdio>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "algo/discovery.h"
#include "bench.h"
#include "obs/obs_schema.gen.h"
#include "net/client.h"
#include "oracle.h"
#include "ranking/ranking.h"
#include "relation/csv.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace net = dhyfd::net;

/// Ladder: a step passes when read p99 (from due time) and generator
/// lateness p99 both stay within this limit and nothing fails. A failed
/// step is tried up to kLadderAttempts times, so one scheduling hiccup of a
/// shared machine does not fail it.
constexpr double kLadderP99LimitMs = 10;
constexpr double kLadderStartRate = 8000;
constexpr double kLadderFactor = 1.5;
constexpr int kLadderMaxSteps = 8;
constexpr int kLadderBisections = 2;
constexpr int kLadderAttempts = 2;
constexpr double kLadderStepSeconds = 0.4;
/// Slices over which latency quantiles are taken: 2500 reads, twenty top-k
/// queries and fifteen update batches each.
constexpr double kQueryWindow = 2.5;
constexpr double kTopkWindow = 2.5;
constexpr double kUpdateWindow = 2.5;
/// A mix whose generator ran later than this at p99 is invalid, not fast.
constexpr double kMaxLateP99Ms = 20;
/// Reads in the open loop go over this many pipelined connections.
constexpr int kQueryConnections = 1;

/// One pipelined connection of the open loop.
struct Stream {
  net::MsgType type = net::MsgType::kQueryCover;
  net::MsgType reply_type = net::MsgType::kCoverResult;
  const char* span_name = "";
  std::unique_ptr<net::BlockingClient> client;
  std::vector<double> due;                        // absolute Now() times
  std::function<std::vector<std::uint8_t>(std::size_t)> payload;
  /// Validates a reply payload; returns "" when it is well-formed.
  std::function<std::string(std::size_t, const std::vector<std::uint8_t>&)> check;

  std::vector<double> sent, done;
  std::vector<char> ok;
  std::vector<std::string> errors;       // receiver side
  std::string send_error;                 // sender side
  std::int64_t backlog_max = 0;
  std::atomic<std::int64_t> received{0};
};

/// The generator, on the calling thread: sends every stream's requests in
/// due order, sleeping until each is due.
void Generator(const std::vector<Stream*>& streams) {
  struct Due {
    double at;
    std::size_t stream, index;
  };
  std::vector<Due> schedule;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    for (std::size_t i = 0; i < streams[k]->due.size(); ++i) {
      schedule.push_back({streams[k]->due[i], k, i});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Due& a, const Due& b) { return a.at < b.at; });
  for (const Due& d : schedule) {
    Stream& s = *streams[d.stream];
    if (!s.send_error.empty()) continue;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(d.at))));
    std::vector<std::uint8_t> payload = s.payload(d.index);
    s.sent[d.index] = Now();
    try {
      s.client->send_frame(s.type, d.index + 1, payload);
    } catch (const std::exception& e) {
      s.send_error = std::string("send: ") + e.what();
      continue;
    }
    s.backlog_max = std::max<std::int64_t>(
        s.backlog_max, static_cast<std::int64_t>(d.index + 1) - s.received.load());
  }
}

void Receiver(Stream& s) {
  std::vector<std::string>& errors = s.errors;
  try {
    for (std::size_t got = 0; got < s.due.size(); ++got) {
      net::Frame frame;
      if (!s.client->read_frame(&frame)) {
        errors.push_back("connection closed");
        break;
      }
      const double now = Now();
      std::size_t i = static_cast<std::size_t>(frame.request_id - 1);
      if (frame.request_id == 0 || i >= s.due.size()) {
        errors.push_back("reply with unknown request id");
        break;
      }
      s.done[i] = now;
      if (frame.type == s.reply_type) {
        std::string err = s.check(i, frame.payload);
        s.ok[i] = err.empty();
        if (!err.empty()) errors.push_back(err);
      } else if (frame.type == net::MsgType::kError) {
        net::WireReader r(frame.payload);
        errors.push_back(std::string("refused: ") + net::ErrorMsg::decode(r).message);
      } else {
        errors.push_back("unexpected reply type");
      }
      s.received.fetch_add(1);
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("receive: ") + e.what());
  }
}

/// Runs every stream to completion: all requests sent on schedule and every
/// reply received (or the connection failed).
void RunStreams(std::vector<Stream*> streams) {
  std::vector<std::thread> threads;
  for (Stream* s : streams) {
    s->sent.assign(s->due.size(), 0);
    s->done.assign(s->due.size(), 0);
    s->ok.assign(s->due.size(), 0);
    threads.emplace_back(Receiver, std::ref(*s));
  }
  Generator(streams);
  for (std::thread& t : threads) t.join();
  for (Stream* s : streams) {
    if (!s->send_error.empty()) s->errors.push_back(s->send_error);
  }
  if (SpanRecorder::Get().enabled()) {
    // One span per request on a per-connection lane, from send to reply.
    std::uint32_t lane = 0x70000000u;
    for (Stream* s : streams) {
      ++lane;
      for (std::size_t i = 0; i < s->due.size(); ++i) {
        if (s->done[i] > 0) {
          SpanRecorder::Get().record({"net", s->span_name, s->sent[i], s->done[i], lane});
        }
      }
    }
  }
}

struct StreamStats {
  Samples latency_ms;  // from due time, answered requests
  Samples late_ms;     // generator lateness
  Samples server_gap_ms;  // from send time
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t backlog_max = 0;
  double first_due = 0, last_done = 0;
};

StreamStats Summarize(const std::vector<Stream*>& streams) {
  StreamStats st;
  st.first_due = 1e300;
  for (const Stream* s : streams) {
    st.backlog_max = std::max(st.backlog_max, s->backlog_max);
    for (std::size_t i = 0; i < s->due.size(); ++i) {
      ++st.attempted;
      st.first_due = std::min(st.first_due, s->due[i]);
      if (s->sent[i] > 0) st.late_ms.add((s->sent[i] - s->due[i]) * 1e3);
      if (!s->ok[i]) {
        ++st.failed;
        continue;
      }
      st.latency_ms.add((s->done[i] - s->due[i]) * 1e3);
      st.server_gap_ms.add((s->done[i] - s->sent[i]) * 1e3);
      st.last_done = std::max(st.last_done, s->done[i]);
    }
  }
  return st;
}

/// Median over consecutive `window`-second slices of the mix of the
/// slice's q-quantile latency from due time. Every slice sees update
/// batches and top-k jobs, so the figure keeps the stalls they cause, while
/// a rare stall spanning a few slices (the shared machine's, or a
/// pathological update batch, reported by incr.batch_max_ms) does not move
/// it.
double WindowedQuantile(const std::vector<Stream*>& streams, double start,
                        double window, double q) {
  std::map<long, Samples> slices;
  for (const Stream* s : streams) {
    for (std::size_t i = 0; i < s->due.size(); ++i) {
      if (!s->ok[i]) continue;
      long slice = static_cast<long>((s->due[i] - start) / window);
      slices[slice].add((s->done[i] - s->due[i]) * 1e3);
    }
  }
  Samples per_slice;
  for (const auto& [slice, latencies] : slices) per_slice.add(latencies.quantile(q));
  return per_slice.median();
}

std::unique_ptr<net::BlockingClient> Connect(Context& ctx, const char* name) {
  return std::make_unique<net::BlockingClient>(
      "127.0.0.1", ctx.stack->server->port(), name, /*timeout_seconds=*/30);
}

std::vector<std::uint8_t> QueryPayload(const std::string& dataset) {
  net::WireWriter w;
  net::QueryCoverMsg msg;
  msg.dataset = dataset;
  msg.top_k = kTopK;
  msg.encode(w);
  return w.take();
}

std::string CheckCover(const std::vector<std::uint8_t>& payload) {
  net::WireReader r(payload);
  net::CoverResultMsg msg = net::CoverResultMsg::decode(r);
  if (msg.total == 0 || msg.top.size() != std::min<std::size_t>(kTopK, msg.total)) {
    return "query_cover: reply sizes inconsistent";
  }
  for (std::size_t i = 1; i < msg.top.size(); ++i) {
    if (msg.top[i].redundancy > msg.top[i - 1].redundancy) {
      return "query_cover: ranking not in descending order";
    }
  }
  return "";
}

/// The read connections, taking the due times `due` in turn; each read asks
/// for a live dataset drawn at random.
std::vector<Stream> QueryStreams(Context& ctx, dhyfd::Random& rng,
                                 const std::vector<double>& due) {
  auto payloads = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
  for (const LiveInput& live : ctx.inputs->live) {
    payloads->push_back(QueryPayload(live.name));
  }
  std::vector<Stream> streams(kQueryConnections);
  std::vector<std::shared_ptr<std::vector<std::size_t>>> choices;
  for (int c = 0; c < kQueryConnections; ++c) {
    Stream& s = streams[c];
    s.type = net::MsgType::kQueryCover;
    s.reply_type = net::MsgType::kCoverResult;
    s.span_name = "query_cover";
    s.client = Connect(ctx, "perfbench-read");
    auto choice = std::make_shared<std::vector<std::size_t>>();
    choices.push_back(choice);
    s.payload = [payloads, choice](std::size_t i) { return (*payloads)[(*choice)[i]]; };
    s.check = [](std::size_t, const std::vector<std::uint8_t>& p) { return CheckCover(p); };
  }
  for (std::size_t i = 0; i < due.size(); ++i) {
    streams[i % kQueryConnections].due.push_back(due[i]);
    choices[i % kQueryConnections]->push_back(rng.next_u64() % payloads->size());
  }
  return streams;
}

std::vector<double> PoissonDue(dhyfd::Random& rng, double start, double rate,
                               double duration) {
  std::vector<double> due;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) break;
    due.push_back(start + t);
  }
  return due;
}

std::vector<double> UniformDue(dhyfd::Random& rng, double start, double rate,
                               double duration) {
  std::vector<double> due;
  for (double t = rng.next_double() / rate; t < duration; t += 1.0 / rate) {
    due.push_back(start + t);
  }
  return due;
}

/// One ladder step: reads only, at `rate`/s for `duration` seconds.
/// Returns the achieved reply rate, or a negative value when the step
/// misses the p99 limit, fails a request, or the generator fell behind.
double LadderAttempt(Context& ctx, dhyfd::Random& rng, double rate,
                     double duration) {
  const double start = Now() + 0.02;
  std::vector<Stream> streams = QueryStreams(ctx, rng, PoissonDue(rng, start, rate, duration));
  std::vector<Stream*> ptrs;
  for (Stream& s : streams) ptrs.push_back(&s);
  RunStreams(ptrs);
  StreamStats st = Summarize(ptrs);
  for (Stream& s : streams) s.client->goodbye();
  const bool pass = st.failed == 0 &&
                    st.latency_ms.quantile(0.99) <= kLadderP99LimitMs &&
                    st.late_ms.quantile(0.99) <= kLadderP99LimitMs;
  const double achieved =
      static_cast<double>(st.attempted) / (st.last_done - st.first_due);
  std::fprintf(stderr,
               "perfbench: ladder %.0f/s for %.2f s: p99 %.2f ms, late p99 "
               "%.2f ms, failed %lld, %.0f/s %s\n",
               rate, duration, st.latency_ms.quantile(0.99),
               st.late_ms.quantile(0.99), static_cast<long long>(st.failed),
               achieved, pass ? "pass" : "FAIL");
  return pass ? achieved : -1;
}

double LadderStep(Context& ctx, dhyfd::Random& rng, double rate, double duration) {
  double got = -1;
  for (int attempt = 0; attempt < kLadderAttempts && got < 0; ++attempt) {
    got = LadderAttempt(ctx, rng, rate, duration);
  }
  return got;
}

/// Highest passing step of a geometric ladder, refined by bisection between
/// it and the next step up. The ladder climbs past a failed step and stops
/// only after two failed steps in a row, so a stall of the machine at a low
/// rate does not end it.
double SustainedRate(Context& ctx, dhyfd::Random& rng) {
  const double step = kLadderStepSeconds;
  // Unmeasured warm-up: fresh connections and generator threads.
  LadderAttempt(ctx, rng, kLadderStartRate, step / 2);
  double pass_rate = 0, achieved = 0;
  int failed_in_row = 0;
  double rate = kLadderStartRate;
  for (int k = 0; k < kLadderMaxSteps && failed_in_row < 2; ++k, rate *= kLadderFactor) {
    double got = LadderStep(ctx, rng, rate, step);
    if (got < 0) {
      ++failed_in_row;
      continue;
    }
    failed_in_row = 0;
    pass_rate = rate;
    achieved = got;
  }
  double fail_rate = pass_rate * kLadderFactor;
  for (int b = 0; b < kLadderBisections && pass_rate > 0; ++b) {
    double mid = std::sqrt(pass_rate * fail_rate);
    double got = LadderStep(ctx, rng, mid, step);
    if (got < 0) {
      fail_rate = mid;
    } else {
      pass_rate = mid;
      achieved = got;
    }
  }
  return achieved;
}

}  // namespace

void RunLivePhase(Context& ctx, double budget, bool traced) {
  std::vector<LiveInput>& lives = ctx.inputs->live;
  const std::size_t datasets = lives.size();
  dhyfd::Random rng(ctx.config.seed * 7919 + (traced ? 1 : 0));
  // The ladder runs in traced passes only; its figure is a per-layer one.
  const double mix = traced ? std::max(budget - kLadderSeconds, budget / 2) : budget;
  const double start = Now() + 0.05;

  std::vector<Stream> queries =
      QueryStreams(ctx, rng, PoissonDue(rng, start, kQueryRate, mix));

  Stream updates;
  updates.type = net::MsgType::kApplyUpdate;
  updates.reply_type = net::MsgType::kUpdateOk;
  updates.span_name = "apply_update";
  updates.client = Connect(ctx, "perfbench-write");
  // Update i goes to dataset i % datasets, as that dataset's next batch.
  updates.due = UniformDue(rng, start, kUpdateRate, mix);
  std::vector<std::size_t> first_batch;
  std::size_t max_updates = updates.due.size();
  for (std::size_t d = 0; d < datasets; ++d) {
    first_batch.push_back(lives[d].applied);
    max_updates = std::min(
        max_updates, (lives[d].batches.size() - lives[d].applied) * datasets + d);
  }
  updates.due.resize(max_updates);
  updates.payload = [&lives, &first_batch, datasets](std::size_t i) {
    const LiveInput& live = lives[i % datasets];
    const dhyfd::UpdateBatch& batch = live.batches[first_batch[i % datasets] + i / datasets];
    net::ApplyUpdateMsg msg;
    msg.dataset = live.name;
    msg.inserts = batch.inserts;
    msg.deletes.assign(batch.deletes.begin(), batch.deletes.end());
    net::WireWriter w;
    msg.encode(w);
    return w.take();
  };
  std::vector<net::UpdateOkMsg> update_replies(updates.due.size());
  updates.check = [&update_replies](std::size_t i, const std::vector<std::uint8_t>& p) {
    net::WireReader r(p);
    update_replies[i] = net::UpdateOkMsg::decode(r);
    return std::string();
  };

  Stream topk;
  topk.type = net::MsgType::kSubmitQuery;
  topk.reply_type = net::MsgType::kQueryResult;
  topk.span_name = "submit_query";
  topk.client = Connect(ctx, "perfbench-topk");
  topk.due = UniformDue(rng, start, kTopkRate, mix);
  const std::uint32_t version = topk.client->server_limits().protocol_version;
  const std::uint32_t nproc = static_cast<std::uint32_t>(ctx.config.nproc);
  topk.payload = [version, nproc, &lives, datasets](std::size_t i) {
    net::SubmitQueryMsg msg;
    msg.dataset = lives[i % datasets].name;
    msg.top_k = kTopK;
    msg.ranking_mode = static_cast<std::uint8_t>(dhyfd::RedundancyMode::kExcludingNullRhs);
    msg.parallelism = nproc;
    net::WireWriter w;
    msg.encode(w, version);
    return w.take();
  };
  std::vector<net::QueryResultMsg> topk_replies;
  topk_replies.resize(topk.due.size());
  topk.check = [&topk_replies](std::size_t i, const std::vector<std::uint8_t>& p) {
    net::WireReader r(p);
    topk_replies[i] = net::QueryResultMsg::decode(r);
    return topk_replies[i].state == "done" && !topk_replies[i].fds.empty()
               ? std::string()
               : "submit_query: job " + topk_replies[i].state;
  };

  std::vector<Stream*> all;
  for (Stream& s : queries) all.push_back(&s);
  all.push_back(&updates);
  all.push_back(&topk);

  // The gauge samples on its own thread while the mix runs, about 2 % of
  // one core.
  const std::size_t gauge_mark = ctx.gauge.mark();
  std::atomic<bool> mix_done{false};
  std::thread gauge([&ctx, &mix_done] {
    while (!mix_done.load()) {
      ctx.gauge.sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
  RegistryMark before(ctx.stack->metrics);
  RunStreams(all);
  RegistryDelta d{before, RegistryMark(ctx.stack->metrics)};
  mix_done.store(true);
  gauge.join();
  const double scale = ctx.gauge.scale(gauge_mark);

  std::vector<Stream*> query_ptrs;
  for (Stream& s : queries) query_ptrs.push_back(&s);
  StreamStats q = Summarize(query_ptrs);
  StreamStats u = Summarize({&updates});
  StreamStats t = Summarize({&topk});
  StreamStats everything = Summarize(all);
  ctx.outcome.attempted += everything.attempted;
  ctx.outcome.failed += everything.failed;
  for (Stream* s : all) {
    for (const std::string& e : s->errors) ctx.outcome.error("live: " + e);
  }
  // Batches apply in order on each dataset's strand; a failed one would
  // leave the final-state check comparing against the wrong relation.
  for (std::size_t d = 0; d < datasets; ++d) {
    lives[d].applied = first_batch[d] + (updates.due.size() + datasets - 1 - d) / datasets;
  }
  if (u.failed > 0) ctx.outcome.error("live: update batch failed");
  if (everything.late_ms.quantile(0.99) > kMaxLateP99Ms) {
    ctx.outcome.error("live: generator fell behind its schedule (late p99 " +
                      std::to_string(everything.late_ms.quantile(0.99)) +
                      " ms): run invalid");
  }

  {
    std::map<std::string, Samples> batch_s;
    for (const net::UpdateOkMsg& ok : update_replies) {
      batch_s[ok.rebuilt ? "rebuilt" : "incremental"].add(ok.seconds);
    }
    LogMedians(traced ? "live update batches (traced)" : "live update batches", batch_s,
               scale);
  }

  // Every top-k answer on a dataset is over its registered snapshot:
  // identical, and the first one checked against the relation. The
  // O(rows^2) reference count runs on each answer's top FD only: on every
  // FD of eight datasets it took ten seconds.
  for (std::size_t i = 0; i < topk_replies.size(); ++i) {
    if (!topk.ok[i]) continue;
    const LiveInput& live = lives[i % datasets];
    const std::string key = "live.topk." + live.name;
    std::string text;
    for (const auto& fd : topk_replies[i].fds) {
      text += fd.fd + " " + std::to_string(static_cast<std::int64_t>(fd.redundancy)) + "\n";
    }
    auto [it, fresh] = ctx.outcome.digests.emplace(key, Fnv64Hex(text));
    if (!fresh && it->second != Fnv64Hex(text)) {
      ctx.outcome.error(key + ": answers differ between identical queries");
    } else if (fresh) {
      dhyfd::EncodedRelation rel = dhyfd::EncodeRelation(live.initial);
      bool brute_force = true;
      for (const auto& fd : topk_replies[i].fds) {
        std::string err = CheckFd(rel.relation, ParseFd(fd.fd), fd.redundancy, brute_force);
        if (!err.empty()) ctx.outcome.error(key + ": " + err);
        brute_force = false;
      }
    }
  }

  MetricTable& m = traced ? ctx.per_layer : ctx.end_to_end;
  if (!traced) {
    ctx.untraced_headline["live"] = q.latency_ms.median();
    // A median shrugs off rare stalls by itself; over the whole mix it has
    // the most samples.
    m.set("update_p50_ms", u.latency_ms.median() * scale, "ms");
    m.set("topk_p50_ms", t.latency_ms.median() * scale, "ms");
    m.set("topk_p90_ms", WindowedQuantile({&topk}, start, kTopkWindow, 0.9) * scale, "ms");
    return;
  }
  ctx.traced_headline["live"] = q.latency_ms.median();
  // Read p50 is a chain of thread wake-ups more than work: it read 0.18 to
  // 0.6 ms across runs of identical code on a shared host, so it is a
  // per-layer figure, unscaled. The read tail and the update tail hang on
  // the few longest update batches of a slice, which the seeded datasets
  // decide; they moved by a fifth between runs and are per-layer too.
  m.set("net.query_p50_ms", WindowedQuantile(query_ptrs, start, kQueryWindow, 0.5), "ms");
  m.set("net.query_p99_ms", WindowedQuantile(query_ptrs, start, kQueryWindow, 0.99), "ms");
  m.set("incr.update_p90_ms", WindowedQuantile({&updates}, start, kUpdateWindow, 0.9), "ms");
  m.set("net.sustained_rps", SustainedRate(ctx, rng), "req/s");
  Samples topk_run_ms;
  for (std::size_t i = 0; i < topk_replies.size(); ++i) {
    if (topk.ok[i]) topk_run_ms.add(topk_replies[i].run_seconds * 1e3);
  }
  const double topks = static_cast<double>(std::max<std::size_t>(topk_run_ms.size(), 1));
  m.set("query.topk_run_ms", topk_run_ms.mean(), "ms");
  m.set("query.validations", static_cast<double>(d.counter(dhyfd::kObsQueryValidations)) / topks,
        "count/query");
  const double executes = static_cast<double>(d.counter(dhyfd::kObsQueryExecutes));
  m.set("query.early_term_ratio",
        executes > 0 ? static_cast<double>(d.counter(dhyfd::kObsQueryEarlyTerminations)) / executes : 0,
        "share");
  // The top-k lattice walk is the partition cache's and intersector's user.
  m.set("partition.intersections",
        static_cast<double>(d.counter(dhyfd::kObsPartitionIntersections)) / topks,
        "count/query");
  const double hits = static_cast<double>(d.counter(dhyfd::kObsPartitionCacheHits));
  const double misses = static_cast<double>(d.counter(dhyfd::kObsPartitionCacheMisses));
  m.set("partition.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "share");
  m.set("service.queue_s", d.mean(dhyfd::kObsJobsQueueSeconds), "s/job");
  m.set("service.run_s", d.mean(dhyfd::kObsJobsRunSeconds), "s/job");
  const double batches = static_cast<double>(std::max<std::int64_t>(d.counter(dhyfd::kObsIncrBatches), 1));
  m.set("incr.batch_ms", d.mean(dhyfd::kObsIncrBatchSeconds) * 1e3, "ms");
  double batch_max = 0;
  for (const net::UpdateOkMsg& ok : update_replies) batch_max = std::max(batch_max, ok.seconds);
  m.set("incr.batch_max_ms", batch_max * 1e3, "ms");
  m.set("incr.queue_wait_ms",
        (d.sum("net.rpc.apply_update.ok_seconds") - d.sum(dhyfd::kObsIncrBatchSeconds)) * 1e3 /
            batches,
        "ms");
  m.set("incr.rebuild_ratio", static_cast<double>(d.counter(dhyfd::kObsIncrRebuilds)) / batches, "share");
  m.set("incr.fds_reranked", static_cast<double>(d.counter(dhyfd::kObsIncrFdsReranked)) / batches,
        "count/batch");
  const double server_query_ms = d.mean("net.rpc.query_cover.ok_seconds") * 1e3;
  m.set("net.server_query_ms", server_query_ms, "ms");
  m.set("net.ops_queue_ms", d.mean(dhyfd::kObsNetRpcQueueSeconds) * 1e3, "ms");
  m.set("net.client_gap_ms", q.server_gap_ms.mean() - server_query_ms, "ms");
  m.set("net.rejects",
        static_cast<double>(d.counter(dhyfd::kObsNetInflightRejects) + d.counter(dhyfd::kObsNetBusyRejects) +
                            d.counter(dhyfd::kObsNetQuotaRejects)),
        "count");
  m.set("harness.late_p99_ms", everything.late_ms.quantile(0.99), "ms");
  m.set("harness.backlog_max", static_cast<double>(everything.backlog_max), "count");
}

void CheckLiveFinal(Context& ctx) {
  net::BlockingClient client("127.0.0.1", ctx.stack->server->port(), "perfbench-check", 60);
  for (const LiveInput& live : ctx.inputs->live) {
    net::CoverResultMsg served = client.query_cover(live.name, 0);

    // The relation the live dataset should hold now: initial rows 0..n-1,
    // each applied insert the next id, deletes by id (inserts first per
    // batch).
    std::map<dhyfd::LiveRowId, std::vector<std::string>> rows;
    dhyfd::LiveRowId next = 0;
    for (const auto& row : live.initial.rows) rows[next++] = row;
    for (std::size_t b = 0; b < live.applied; ++b) {
      for (const auto& row : live.batches[b].inserts) rows[next++] = row;
      for (dhyfd::LiveRowId id : live.batches[b].deletes) rows.erase(id);
    }
    dhyfd::RawTable table;
    table.header = live.initial.header;
    for (auto& [id, row] : rows) table.rows.push_back(row);
    dhyfd::EncodedRelation rel = dhyfd::EncodeRelation(table);
    dhyfd::DiscoveryResult fresh = dhyfd::MakeDiscovery("dhyfd")->discover(rel.relation);
    std::vector<dhyfd::FdRedundancy> ranked = dhyfd::RankFds(rel.relation, fresh.fds);

    auto render = [](const std::string& fd, double count) {
      return fd + " " + std::to_string(static_cast<std::int64_t>(count));
    };
    std::vector<std::string> want, got;
    for (const auto& r : ranked) {
      want.push_back(render(r.fd.to_string(),
                            static_cast<double>(dhyfd::RedundancyCount(
                                r, dhyfd::RedundancyMode::kExcludingNullRhs))));
    }
    for (const auto& r : served.top) got.push_back(render(r.fd, r.redundancy));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    const std::string key = "live.final." + live.name;
    if (want != got || served.total != want.size()) {
      ctx.outcome.error(key + ": live ranking (" + std::to_string(got.size()) +
                        " FDs) differs from a fresh profile of the final relation (" +
                        std::to_string(want.size()) + " FDs)");
    }
    std::string text;
    for (const std::string& line : want) text += line + "\n";
    ctx.outcome.digests[key] = Fnv64Hex(text);
    std::fprintf(stderr, "perfbench: %s: %zu rows, %u FDs after %zu update batches\n",
                 live.name.c_str(), table.rows.size(), served.total, live.applied);
  }
  client.goodbye();
}

}  // namespace perfbench

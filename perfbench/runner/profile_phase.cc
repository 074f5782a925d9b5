// Phase "profile": each analog is one user request through the in-process
// ProfilingServer on one BlockingClient connection — register_dataset (CSV
// upload), then submit_discovery with top_k and parallelism = nproc, then the
// ranked reply. One request is in flight at a time, so registry sum deltas
// around a job are that job's exact server-side split.

#include "bench.h"
#include "obs/obs_schema.gen.h"
#include "net/client.h"
#include "oracle.h"

namespace perfbench {
namespace {

/// Relations up to this many rows also get the O(rows^2) redundancy
/// reference check.
constexpr int kBruteForceRows = 2500;

std::string ReplyDigest(const dhyfd::net::DiscoveryResultMsg& reply) {
  std::string text = std::to_string(reply.cover_size) + "/" +
                     std::to_string(reply.canonical_size) + "\n";
  for (const auto& fd : reply.top) {
    text += fd.fd + " " + std::to_string(static_cast<std::int64_t>(fd.redundancy)) + "\n";
  }
  return Fnv64Hex(text);
}

/// Checks a ranked reply against the relation it was computed from.
void CheckReply(Context& ctx, const Dataset& data, int rows,
                const dhyfd::net::DiscoveryResultMsg& reply,
                const std::string& key) {
  if (reply.top.size() != std::min<std::size_t>(kTopK, reply.canonical_size) ||
      reply.canonical_size == 0 || reply.cover_size < reply.canonical_size) {
    ctx.outcome.error(key + ": reply sizes inconsistent");
    return;
  }
  dhyfd::EncodedRelation rel = dhyfd::EncodeRelation(data.table);
  double prev = -1;
  for (const auto& ranked : reply.top) {
    if (prev >= 0 && ranked.redundancy > prev) {
      ctx.outcome.error(key + ": ranking not in descending order");
    }
    prev = ranked.redundancy;
    std::string err = CheckFd(rel.relation, ParseFd(ranked.fd), ranked.redundancy,
                              rows <= kBruteForceRows);
    if (!err.empty()) ctx.outcome.error(key + ": " + err);
  }
}

}  // namespace

void RunProfilePhase(Context& ctx, double budget, bool traced) {
  dhyfd::net::BlockingClient client("127.0.0.1", ctx.stack->server->port(),
                                    "perfbench-profile", /*timeout_seconds=*/170);
  const std::vector<AnalogInput>& jobs = ctx.inputs->profile;

  std::map<std::string, Samples> wall;
  Samples upload, encode, discover, canonical, rank, queue, gap, lr_fds,
      canonical_fds;
  const std::size_t gauge_mark = ctx.gauge.mark();
  const double start = Now();
  const double deadline = start + budget;
  for (std::size_t round = 0; round == 0 || Now() < deadline; ++round) {
    for (const AnalogInput& in : jobs) {
      if (round > 0 && Now() >= deadline) break;
      const std::string& analog = in.job.analog;
      const std::size_t k = round % in.datasets.size();
      const Dataset& data = in.datasets[k];
      ctx.gauge.sample(ctx.config.nproc);
      dhyfd::net::SubmitDiscoveryMsg request;
      request.dataset = analog;
      request.top_k = kTopK;
      request.parallelism = static_cast<std::uint32_t>(ctx.config.nproc);
      dhyfd::net::DiscoveryResultMsg reply;
      RegistryMark before(ctx.stack->metrics);
      ++ctx.outcome.attempted;
      const double t0 = Now();
      double t1 = t0;
      try {
        {
          ScopedSpan span("net", "register_dataset");
          client.register_dataset(analog, data.csv, /*live=*/false);
        }
        t1 = Now();
        ScopedSpan span("net", "submit_discovery");
        reply = client.submit_discovery(request);
      } catch (const std::exception& e) {
        ++ctx.outcome.failed;
        ctx.outcome.error("profile." + analog + ": " + e.what());
        continue;
      }
      const double t2 = Now();
      RegistryDelta d{before, RegistryMark(ctx.stack->metrics)};
      if (reply.state != "done") {
        ++ctx.outcome.failed;
        ctx.outcome.error("profile." + analog + ": job " + reply.state);
        continue;
      }
      wall[analog].add(t2 - t0);
      upload.add(t1 - t0);
      queue.add(reply.queue_seconds);
      const double enc = d.sum(dhyfd::kObsDatasetEncodeSeconds);
      const double disc = d.sum("stage.discover_seconds");
      const double can = d.sum("stage.canonical_seconds");
      const double rk = d.sum("stage.rank_seconds");
      encode.add(enc);
      discover.add(disc);
      canonical.add(can);
      rank.add(rk);
      gap.add((t2 - t0) - (t1 - t0) - reply.queue_seconds - enc - disc - can - rk);
      lr_fds.add(reply.cover_size);
      canonical_fds.add(reply.canonical_size);

      const std::string key = "profile." + analog + "." + std::to_string(k);
      const std::string digest = ReplyDigest(reply);
      auto [it, fresh] = ctx.outcome.digests.emplace(key, digest);
      if (!fresh) {
        if (it->second != digest) {
          ctx.outcome.error(key + ": reply differs between identical jobs");
        }
      } else {
        CheckReply(ctx, data, in.job.rows, reply, key);
      }
    }
  }
  client.goodbye();

  const double scale = ctx.gauge.scale(gauge_mark);
  const double profile_s = RoundMean(jobs, wall) * scale;
  LogMedians(traced ? "profile (traced)" : "profile", wall, scale);
  MetricTable& m = traced ? ctx.per_layer : ctx.end_to_end;
  if (!traced) {
    ctx.untraced_headline["profile"] = profile_s;
    m.set("profile_s", profile_s, "s/job");
    return;
  }
  ctx.traced_headline["profile"] = profile_s;
  m.set("relation.upload_ms", upload.mean() * 1e3, "ms");
  m.set("relation.encode_s", encode.mean(), "s/job");
  m.set("fd.canonical_s", canonical.mean(), "s/job");
  m.set("fd.lr_fds", lr_fds.mean(), "count/job");
  m.set("fd.canonical_fds", canonical_fds.mean(), "count/job");
  m.set("ranking.rank_s", rank.mean(), "s/job");
  m.set("ranking.ms_per_fd",
        canonical_fds.sum() > 0 ? rank.sum() * 1e3 / canonical_fds.sum() : 0,
        "ms");
  m.set("core.discover_stage_s", discover.mean(), "s/job");
  m.set("core.stage_gap_s", gap.mean(), "s/job");
}

}  // namespace perfbench

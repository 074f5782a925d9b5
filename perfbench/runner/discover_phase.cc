// Phase "discover": the paper's Table II operation. Library DHyFD runs over
// the seeded analogs one job at a time, in rounds of one job per analog,
// until the budget is spent. No canonical cover, ranking, service or wire
// work.

#include "algo/discovery.h"
#include "bench.h"
#include "obs/obs_schema.gen.h"
#include "oracle.h"
#include "trace_report.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// FDs per analog checked against the relation (holds + minimal) per run.
constexpr std::size_t kSampledFds = 24;

}  // namespace

void RunDiscoverPhase(Context& ctx, double budget, bool traced) {
  const int nproc = ctx.config.nproc;
  // parallelism = nproc: the calling thread plus nproc - 1 pool workers.
  dhyfd::ThreadPool pool(std::max(1, nproc - 1));
  const std::vector<AnalogInput>& jobs = ctx.inputs->discover;
  std::map<std::string, Samples> wall;
  std::int64_t validations = 0, invalidated = 0, pairs = 0, refinements = 0,
               ddm_updates = 0, done = 0;
  const std::size_t gauge_mark = ctx.gauge.mark();
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  const double deadline = start + budget;

  for (std::size_t round = 0; round == 0 || Now() < deadline; ++round) {
    for (const AnalogInput& in : jobs) {
      if (round > 0 && Now() >= deadline) break;
      const std::string& analog = in.job.analog;
      const std::size_t k = round % in.datasets.size();
      const Dataset& data = in.datasets[k];
      ctx.gauge.sample(nproc);
      auto algo = dhyfd::MakeDiscovery("dhyfd", 0, nproc, &pool);
      dhyfd::DiscoveryResult result;
      const double t0 = Now();
      {
        ScopedSpan span("algo", "discover");
        result = algo->discover(data.encoded.relation);
      }
      const double seconds = Now() - t0;
      ++ctx.outcome.attempted;
      if (result.stats.timed_out) {
        ++ctx.outcome.failed;
        continue;
      }
      wall[analog].add(seconds);
      ++done;
      validations += result.stats.validations;
      invalidated += result.stats.invalidated;
      pairs += result.stats.pairs_compared;
      refinements += result.stats.refinements;
      ddm_updates += result.stats.ddm_updates;

      // Correctness, outside the timed call: every job on a dataset returns
      // the same cover; the first one per run is sampled against the
      // relation.
      const std::string key = "discover." + analog + "." + std::to_string(k);
      const std::string digest = CoverDigest(result.fds);
      auto [it, fresh] = ctx.outcome.digests.emplace(key, digest);
      if (!fresh) {
        if (it->second != digest) {
          ctx.outcome.error(key + ": cover differs between identical jobs");
        }
        continue;
      }
      if (result.fds.empty()) ctx.outcome.error(key + ": empty cover");
      for (const dhyfd::Fd& fd : SampleFds(result.fds, kSampledFds, data.seed)) {
        std::string err = CheckFd(data.encoded.relation, fd);
        if (!err.empty()) ctx.outcome.error(key + ": " + err);
      }
    }
  }
  const double end = Now();
  const double cpu = ProcessCpuSeconds() - cpu0;

  const double scale = ctx.gauge.scale(gauge_mark);
  const double discover_s = RoundMean(jobs, wall) * scale;
  LogMedians(traced ? "discover (traced)" : "discover", wall, scale);
  MetricTable& m = traced ? ctx.per_layer : ctx.end_to_end;
  if (!traced) {
    ctx.untraced_headline["discover"] = discover_s;
    m.set("discover_s", discover_s, "s/job");
    return;
  }
  ctx.traced_headline["discover"] = discover_s;
  const double n = static_cast<double>(std::max<std::int64_t>(done, 1));
  for (const AnalogInput& in : jobs) {
    m.set("algo.discover_s." + in.job.analog, wall[in.job.analog].median() * scale, "s");
  }
  m.set("algo.cpu_util", cpu / ((end - start) * nproc), "share");
  m.set("algo.validations", static_cast<double>(validations) / n, "count/job");
  m.set("algo.valid_ratio",
        validations > 0
            ? 1.0 - static_cast<double>(invalidated) / static_cast<double>(validations)
            : 0,
        "share");
  m.set("algo.pairs_compared", static_cast<double>(pairs) / n, "count/job");
  m.set("algo.ddm_updates", static_cast<double>(ddm_updates) / n, "count/job");
  m.set("partition.refinements", static_cast<double>(refinements) / n,
        "count/job");

  std::map<std::string, double> by_name =
      SelfSeconds(CollectSpans(), start, end, /*by_name=*/true);
  m.set("fdtree.induction_s", by_name[dhyfd::kObsDiscoverInduction] / n, "s/job");
  m.set("algo.validation_s", by_name[dhyfd::kObsDiscoverValidation] / n, "s/job");
  m.set("algo.sampling_s", by_name[dhyfd::kObsDiscoverSampling] / n, "s/job");
  m.set("algo.ddm_update_s", by_name[dhyfd::kObsDiscoverDdmUpdate] / n, "s/job");
}

}  // namespace perfbench

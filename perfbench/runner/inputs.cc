// Seeded input generation and the service stack.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "datagen/benchmark_data.h"
#include "datagen/update_stream.h"
#include "relation/csv.h"

namespace perfbench {
namespace {

/// Library discovery jobs: wide FD-rich analogs (diabetic, uniprot) stress
/// serial induction, tall ones (weather, lineitem) validation refinement.
const std::vector<AnalogJob>& DiscoverJobList() {
  static const std::vector<AnalogJob> jobs = {
      {"diabetic", 600, 0.2}, {"uniprot", 3000, 0.16},
      {"weather", 10000, 0.09}, {"lineitem", 20000, 0.1}};
  return jobs;
}

/// Profile requests: canonical cover and redundancy ranking dominate,
/// discovery stays a small share. Diabetic is left out: canonical cover on
/// its analog takes 15-45 s for some seeds even at 250-400 rows, which a
/// run cannot absorb. Uniprot below about 1000 rows has the same cliff
/// (one seed in eight: 10-50k FDs, 1.5-15 s of canonical cover).
const std::vector<AnalogJob>& ProfileJobList() {
  static const std::vector<AnalogJob> jobs = {
      {"uniprot", 1200, 0.5}, {"weather", 3000, 0.16},
      {"lineitem", 6000, 0.09}};
  return jobs;
}

/// Distinct datasets per analog: enough for every round a phase budget
/// holds, within bounds that keep set-up and memory small. Later rounds
/// cycle through them again.
constexpr int kMinDistinct = 4;
constexpr int kMaxDistinct = 16;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0x7fffffffffffull;
}

/// Salt of dataset `k` of analog `a` of phase `phase`: a dataset's seed
/// does not depend on how many datasets the budget asked for.
std::uint64_t Salt(std::uint64_t phase, std::uint64_t a, std::uint64_t k) {
  return (phase << 40) | (a << 20) | k;
}

/// The job list's datasets; `encode` for library jobs, CSV text for uploads.
std::vector<AnalogInput> Generate(const std::vector<AnalogJob>& jobs,
                                  std::uint64_t run_seed, std::uint64_t phase,
                                  double budget, bool encode) {
  double round_seconds = 0;
  for (const AnalogJob& job : jobs) round_seconds += job.est_seconds;
  const int distinct = std::clamp(
      static_cast<int>(std::ceil(budget / round_seconds)), kMinDistinct,
      kMaxDistinct);
  std::vector<AnalogInput> out;
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    AnalogInput in{jobs[a], {}};
    for (int k = 0; k < distinct; ++k) {
      Dataset d;
      d.seed = Mix(run_seed, Salt(phase, a, static_cast<std::uint64_t>(k)));
      dhyfd::DatasetSpec spec = dhyfd::MakeBenchmarkSpec(jobs[a].analog, jobs[a].rows);
      spec.seed = d.seed;
      d.table = dhyfd::GenerateRawTable(spec);
      if (encode) {
        ScopedSpan span("relation", "EncodeRelation");
        d.encoded = dhyfd::EncodeRelation(d.table);
        d.table = {};
      } else {
        d.csv = dhyfd::WriteCsvString(d.table);
      }
      in.datasets.push_back(std::move(d));
    }
    out.push_back(std::move(in));
  }
  return out;
}

}  // namespace

Inputs GenerateInputs(const Config& config, const PhaseBudgets& budgets) {
  Inputs in;
  in.discover = Generate(DiscoverJobList(), config.seed, 1, budgets.discover,
                         /*encode=*/true);
  in.profile = Generate(ProfileJobList(), config.seed, 2, budgets.profile,
                        /*encode=*/false);

  // Live lineitem analogs, read while they change, each with enough update
  // batches for a mix as long as the whole live phase.
  for (int d = 0; d < kLiveDatasets; ++d) {
    const auto dataset = static_cast<std::uint64_t>(d);
    dhyfd::UpdateStreamSpec stream;
    stream.base = dhyfd::MakeBenchmarkSpec(kLiveAnalog, kLiveRows);
    stream.base.seed = Mix(config.seed, Salt(3, dataset, 0));
    stream.initial_rows = kLiveRows;
    stream.batch_size = kUpdateBatchSize;
    stream.delete_fraction = 0.3;
    stream.num_batches =
        static_cast<int>(budgets.live * kUpdateRate / kLiveDatasets) + 8;
    stream.seed = Mix(config.seed, Salt(3, dataset, 1));
    dhyfd::UpdateStream generated = dhyfd::GenerateUpdateStream(stream);
    LiveInput live;
    live.name = "live" + std::to_string(d);
    live.initial = std::move(generated.initial);
    live.csv = dhyfd::WriteCsvString(live.initial);
    live.batches = std::move(generated.batches);
    in.live.push_back(std::move(live));
  }
  return in;
}

Stack::Stack(int nproc) {
  dhyfd::SchedulerOptions sched;
  sched.num_threads = nproc;
  scheduler = std::make_unique<dhyfd::JobScheduler>(&datasets, &metrics, sched);
  live = std::make_unique<dhyfd::LiveStore>(&metrics, nproc);
  dhyfd::net::ServerOptions options;
  // Quota off and a deep in-flight window: the open loop pipelines reads,
  // and the default quota refuses a handful of busy connections.
  options.quota_rate = 0;
  options.quota_burst = 0;
  options.max_inflight = 1 << 16;
  options.drain_seconds = 2;
  server = std::make_unique<dhyfd::net::ProfilingServer>(
      scheduler.get(), live.get(), &datasets, &metrics, options);
  server->start();
}

Stack::~Stack() {
  server->shutdown();
  scheduler->shutdown();
  live->shutdown();
}

double RoundMean(const std::vector<AnalogInput>& jobs,
                 const std::map<std::string, Samples>& per_analog) {
  double total = 0;
  int count = 0;
  for (const AnalogInput& in : jobs) {
    auto it = per_analog.find(in.job.analog);
    if (it == per_analog.end() || it->second.empty()) continue;
    total += it->second.median();
    ++count;
  }
  return count > 0 ? total / count : 0;
}

}  // namespace perfbench

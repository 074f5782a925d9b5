// Shared types of the benchmark runner: the run configuration, the
// generated inputs, the in-process service stack, and the three phases every
// workload is built from.
//
//   discover  library DHyFD discovery over the Table II analogs
//   profile   upload -> submit_discovery(top_k) -> ranked reply, over RPC
//   live      open-loop query_cover / apply_update / submit_query mix on a
//             few live datasets, then an offered-rate ladder of reads
//
// A workload runs all three, each for its share of the run, so every run
// reports every metric.

#ifndef PERFBENCH_RUNNER_BENCH_H_
#define PERFBENCH_RUNNER_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "incr/update_batch.h"
#include "net/server.h"
#include "relation/encoder.h"
#include "service/dataset_registry.h"
#include "service/live_store.h"
#include "service/scheduler.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  int nproc = 1;
};

/// One analog of a phase's job list. A phase runs its analogs round-robin,
/// one job each per round, every round on the next of the analog's seeded
/// datasets, so a run's figure is a median over many generator draws rather
/// than the cost of one unusual draw. `est_seconds` (one job on a 4-core
/// machine) only sizes how many distinct datasets a budget needs.
struct AnalogJob {
  std::string analog;
  int rows = 0;
  double est_seconds = 0;
};

/// One generated dataset of an analog.
struct Dataset {
  std::uint64_t seed = 0;  // DatasetSpec.seed, derived from the run seed
  dhyfd::RawTable table;
  dhyfd::EncodedRelation encoded;
  std::string csv;  // profile inputs only
};

struct AnalogInput {
  AnalogJob job;
  std::vector<Dataset> datasets;  // round r uses datasets[r % size]
};

/// One live dataset and the update batches the mix sends it.
struct LiveInput {
  std::string name;
  dhyfd::RawTable initial;
  std::string csv;
  std::vector<dhyfd::UpdateBatch> batches;
  /// Batches [0, applied) have been sent and acknowledged.
  std::size_t applied = 0;
};

struct Inputs {
  std::vector<AnalogInput> discover;
  std::vector<AnalogInput> profile;
  std::vector<LiveInput> live;
};

/// Seconds of the run each phase measures.
struct PhaseBudgets {
  double discover = 0, profile = 0, live = 0;
};

/// Generates every input of a run from the seed and the phase budgets.
Inputs GenerateInputs(const Config& config, const PhaseBudgets& budgets);

/// The service stack behind the wire, owned by the benchmark, so it can
/// read exact server-side sums from the MetricsRegistry.
struct Stack {
  explicit Stack(int nproc);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  dhyfd::MetricsRegistry metrics;
  dhyfd::DatasetRegistry datasets{&metrics};
  std::unique_ptr<dhyfd::JobScheduler> scheduler;
  std::unique_ptr<dhyfd::LiveStore> live;
  std::unique_ptr<dhyfd::net::ProfilingServer> server;
};

inline constexpr std::uint32_t kTopK = 10;

// The live mix: kLiveDatasets lineitem analogs of kLiveRows rows each, read
// by pipelined query_cover calls at kQueryRate/s (each on a random dataset),
// changed by kUpdateRate update batches/s of kUpdateBatchSize operations and
// asked kTopkRate top-k queries/s (both round-robin over the datasets).
// Several datasets average out the generator's draw: one dataset's update
// cost moves by a fifth between seeds.
inline constexpr int kLiveDatasets = 8;
inline constexpr const char* kLiveAnalog = "lineitem";
inline constexpr int kLiveRows = 4000;
inline constexpr int kUpdateBatchSize = 4;
inline constexpr double kUpdateRate = 6;
inline constexpr double kQueryRate = 1000;
inline constexpr double kTopkRate = 8;
/// The live phase ends with an offered-rate ladder of about this length;
/// the mixed open loop gets the rest of the phase.
inline constexpr double kLadderSeconds = 5;

/// Everything a phase needs; phases add their figures to the metric tables
/// and their bookkeeping to `outcome`.
struct Context {
  Config config;
  Inputs* inputs = nullptr;
  Stack* stack = nullptr;
  /// Untraced passes report end-to-end metrics, traced passes per-layer ones.
  MetricTable end_to_end;
  MetricTable per_layer;
  Outcome outcome;
  /// Scales the run's compute-bound wall times to a reference speed.
  SpeedGauge gauge;
  /// Per-phase headline figure of the untraced and traced passes, for
  /// obs.trace_overhead.
  std::map<std::string, double> untraced_headline;
  std::map<std::string, double> traced_headline;
};

/// Each phase measures for `budget` seconds, and at least one round of its
/// job list (discover, profile). When `traced`, it records spans and counters
/// and reports per-layer metrics; otherwise it reports its end-to-end
/// metrics. Both passes run the correctness checks.
void RunDiscoverPhase(Context& ctx, double budget, bool traced);
void RunProfilePhase(Context& ctx, double budget, bool traced);
void RunLivePhase(Context& ctx, double budget, bool traced);

/// After the last phase: each live dataset's served ranking must equal a
/// fresh discover + rank of the relation its applied batches left.
void CheckLiveFinal(Context& ctx);

/// Mean over the analogs of each analog's median wall per job: the mean
/// wall per job of one round, robust to a stray slow job.
double RoundMean(const std::vector<AnalogInput>& jobs,
                 const std::map<std::string, Samples>& per_analog);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_H_

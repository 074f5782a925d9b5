// Benchmark runner: one run of one workload.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// Prints one JSON line: correct, attempted, failed, metrics (end-to-end
// metrics untraced, per-layer metrics traced), plus the output digests and
// correctness errors, which perfbench/run.py checks and strips.

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "trace_report.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median, scaled by the speed gauge
/// sampled before each.
constexpr int kSetupReps = 3;
constexpr int kGaugeSamplesPerSetup = 8;

/// Every workload runs all three phases, so every run reports every
/// metric; the shares of --seconds say which layers it is about.
struct Workload {
  const char* name;
  const char* headline;  // phase whose figure obs.trace_overhead compares
  double discover_share, profile_share, live_share;
};

const Workload kWorkloads[] = {
    {"table2", "discover", 0.35, 0.4, 0.25},
    {"live-rpc", "live", 0.2, 0.25, 0.55},
};

/// Generates the inputs, starts the stack and registers the live datasets.
void SetUp(Context& ctx, const PhaseBudgets& budgets,
           std::unique_ptr<Inputs>& inputs, std::unique_ptr<Stack>& stack) {
  inputs = std::make_unique<Inputs>(GenerateInputs(ctx.config, budgets));
  stack = std::make_unique<Stack>(ctx.config.nproc);
  dhyfd::net::BlockingClient client("127.0.0.1", stack->server->port(),
                                    "perfbench-setup", 120);
  for (const LiveInput& live : inputs->live) {
    ScopedSpan span("net", "register_dataset");
    client.register_dataset(live.name, live.csv, /*live=*/true);
  }
  client.goodbye();
}

int Main(int argc, char** argv) {
  Config config;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") config.workload = value;
    else if (key == "--seed") config.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") config.seconds = std::atof(value.c_str());
    else if (key == "--trace") config.trace = value == "1";
    else if (key == "--out-dir") out_dir = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || config.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench_runner --workload "
                         "table2|live-rpc --seed N "
                         "--seconds S --trace 0|1\n");
    return 2;
  }
  config.nproc = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  const PhaseBudgets budgets{config.seconds * workload->discover_share,
                             config.seconds * workload->profile_share,
                             config.seconds * workload->live_share};
  Context ctx;
  ctx.config = config;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Stack> stack;
  Samples setup;
  const std::size_t gauge_mark = ctx.gauge.mark();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int i = 0; i < kGaugeSamplesPerSetup; ++i) ctx.gauge.sample();
    // A traced run records the last set-up, so relation encoding and live
    // registration show in the layer self times.
    stack.reset();
    inputs.reset();
    if (config.trace && rep == kSetupReps - 1) StartTracing();
    const double t0 = Now();
    SetUp(ctx, budgets, inputs, stack);
    setup.add(Now() - t0);
    StopTracing();
  }
  const double setup_scale = ctx.gauge.scale(gauge_mark);
  std::fprintf(stderr, "perfbench: set-up (speed scale %.3f): %.4f s (max %.4f, n=%d)\n",
               setup_scale, setup.median(), setup.quantile(1), kSetupReps);
  ctx.inputs = inputs.get();
  ctx.stack = stack.get();

  // A traced run measures each phase untraced then traced, half its time
  // each; the ratio of their headline figures is the tracing overhead.
  auto run = [&](void (*phase)(Context&, double, bool), double budget) {
    if (!config.trace) {
      phase(ctx, budget, false);
      return;
    }
    phase(ctx, budget / 2, false);
    StartTracing();
    phase(ctx, budget / 2, true);
    StopTracing();
  };
  run(RunDiscoverPhase, budgets.discover);
  run(RunProfilePhase, budgets.profile);
  run(RunLivePhase, budgets.live);
  CheckLiveFinal(ctx);
  ctx.outcome.attempted += 1;

  MetricTable* out = &ctx.end_to_end;
  if (!config.trace) {
    out->set("setup_s", setup.median() * setup_scale, "s");
    out->set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    out = &ctx.per_layer;
    std::vector<Span> spans = CollectSpans();
    std::map<std::string, double> self =
        SelfSeconds(spans, 0, 1e300, /*by_name=*/false);
    for (const std::string& layer : SpanLayers()) {
      out->set(layer + ".self_s", self[layer], "s");
    }
    const std::string focus = workload->headline;
    const double untraced = ctx.untraced_headline[focus];
    out->set("obs.trace_overhead",
             untraced > 0 ? ctx.traced_headline[focus] / untraced : 0, "ratio");
    out->set("harness.speed_scale", ctx.gauge.scale(0), "ratio");
    out->set("harness.failed_frac",
             static_cast<double>(ctx.outcome.failed) /
                 static_cast<double>(std::max<std::int64_t>(ctx.outcome.attempted, 1)),
             "share");
    WriteChromeTrace(out_dir + "/perfbench-trace-" + config.workload + "-" +
                         std::to_string(config.seed) + ".json",
                     spans);
  }

  std::string json = "{\"correct\": ";
  json += ctx.outcome.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ctx.outcome.attempted);
  json += ", \"failed\": " + std::to_string(ctx.outcome.failed);
  json += ", \"metrics\": " + out->to_json();
  json += ", \"digests\": {";
  bool first = true;
  for (const auto& [key, digest] : ctx.outcome.digests) {
    json += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(digest);
    first = false;
  }
  json += "}, \"errors\": [";
  for (std::size_t i = 0; i < ctx.outcome.errors.size() && i < 20; ++i) {
    json += (i ? ", " : "") + JsonString(ctx.outcome.errors[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}

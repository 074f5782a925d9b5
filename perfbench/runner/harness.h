// Measurement plumbing shared by the benchmark phases: clocks, sample sets,
// process resource readings, the benchmark's own in-memory span recorder,
// and the metric table the runner prints as one JSON line.

#ifndef PERFBENCH_RUNNER_HARNESS_H_
#define PERFBENCH_RUNNER_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/metrics.h"

namespace perfbench {

/// Monotonic seconds (steady_clock).
double Now();
/// Process CPU seconds, user + system, all threads.
double ProcessCpuSeconds();
/// Process peak resident set size in MB (getrusage ru_maxrss).
double PeakRssMb();

/// A set of observations with interpolated quantiles (same rule as numpy's
/// default: linear between closest ranks).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// Machine speed gauge. A shared host's speed drifts by about a sixth over
/// tens of seconds (busy neighbours on the same cores), moving every wall
/// time of a run together; CPU time drifts the same way. The gauge times a
/// fixed kernel that is the benchmark's own code, none of the program's (a
/// hash group-by and a sort over seeded keys, like partition refinement),
/// while a phase runs, on as many threads at once as the phase's jobs use,
/// since a busy neighbour on one core also slows a parallel job. `scale()`
/// is kReferenceSeconds over the median kernel time since a mark:
/// multiplying a wall time by it gives the time on a machine where the
/// kernel takes kReferenceSeconds. A change to the program cannot move the
/// kernel, so it still moves the scaled times.
class SpeedGauge {
 public:
  static constexpr double kReferenceSeconds = 0.01;
  /// Runs the kernel once on each of `threads` threads at once and records
  /// the harmonic mean of their wall times: the time at the threads'
  /// combined throughput, as a job whose shards are claimed dynamically
  /// sees it. The slowest thread's time over-corrected by up to a third.
  void sample(int threads = 1);
  /// Mark for scale(): the number of samples so far.
  std::size_t mark() const;
  /// kReferenceSeconds / median of the samples since `from`; 1 when there
  /// are none.
  double scale(std::size_t from) const;

 private:
  mutable std::mutex mu_;
  std::vector<double> seconds_;
};

/// One finished span: `layer` names the module the call went into, `name`
/// the call. Times are Now() seconds; `tid` is the dhyfd trace tid of the
/// recording thread so the benchmark's spans nest with the program's own.
struct Span {
  const char* layer = "";
  const char* name = "";
  double start = 0;
  double end = 0;
  std::uint32_t tid = 0;
};

/// The benchmark's span recorder. Disabled unless the run is traced; spans
/// stay in memory until the run ends and are then written out and folded
/// into per-layer self times.
class SpanRecorder {
 public:
  static SpanRecorder& Get();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void record(const Span& span);
  std::vector<Span> spans() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Point-in-time copy of a MetricsRegistry, so a phase can read exact
/// server-side totals as (after - before) sum/count deltas. Histogram
/// quantiles are never used: their decade buckets are too coarse.
class RegistryMark {
 public:
  explicit RegistryMark(const dhyfd::MetricsRegistry& registry);
  std::int64_t counter(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  std::int64_t hist_count(const std::string& name) const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, dhyfd::Histogram::Snapshot> hists_;
};

/// after - before for one registry, by metric name.
struct RegistryDelta {
  RegistryMark before;
  RegistryMark after;
  std::int64_t counter(const std::string& name) const {
    return after.counter(name) - before.counter(name);
  }
  double sum(const std::string& name) const {
    return after.hist_sum(name) - before.hist_sum(name);
  }
  std::int64_t count(const std::string& name) const {
    return after.hist_count(name) - before.hist_count(name);
  }
  /// Mean per observation over the interval; 0 when nothing was recorded.
  double mean(const std::string& name) const {
    std::int64_t n = count(name);
    return n > 0 ? sum(name) / static_cast<double>(n) : 0;
  }
};

/// Named metrics with units, printed in insertion order.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The outcome bookkeeping every phase feeds: operations attempted and
/// failed, correctness errors, and the digests compared against the
/// committed ones for the default seed.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::string> digests;
  void error(const std::string& message) { errors.push_back(message); }
};

/// One stderr line per phase: each key's median, maximum and sample count,
/// and the phase's speed scale.
void LogMedians(const std::string& phase, const std::map<std::string, Samples>& samples,
                double scale = 1);

/// Minimal JSON string escaping.
std::string JsonString(const std::string& s);

/// 64-bit FNV-1a over a byte string, rendered as 16 hex digits.
std::string Fnv64Hex(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HARNESS_H_

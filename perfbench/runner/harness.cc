#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "obs/trace.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double idx = std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0 : sum() / static_cast<double>(values_.size());
}

namespace {

/// The gauge's input: 100k seeded keys over 25k groups.
const std::vector<std::uint32_t>& GaugeKeys() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(100000);
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t& v : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x % 25000);
    }
    return k;
  }();
  return keys;
}

/// The gauge's kernel: a hash group-by and a sort of the keys.
void GaugeKernel() {
  const std::vector<std::uint32_t>& keys = GaugeKeys();
  std::unordered_map<std::uint32_t, std::uint32_t> groups;
  for (std::uint32_t k : keys) ++groups[k];
  std::vector<std::uint32_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  // Keeps the work from being optimised away.
  if (groups.size() + sorted[sorted.size() / 2] == 0) std::abort();
}

}  // namespace

void SpeedGauge::sample(int threads) {
  GaugeKeys();  // built once, outside any timing
  std::vector<double> seconds(static_cast<std::size_t>(std::max(threads, 1)));
  auto timed = [&seconds](std::size_t i) {
    const double t0 = Now();
    GaugeKernel();
    seconds[i] = Now() - t0;
  };
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < seconds.size(); ++i) helpers.emplace_back(timed, i);
  timed(0);
  for (std::thread& t : helpers) t.join();
  double rate = 0;
  for (double s : seconds) rate += 1 / s;
  std::lock_guard<std::mutex> lock(mu_);
  seconds_.push_back(static_cast<double>(seconds.size()) / rate);
}

std::size_t SpeedGauge::mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seconds_.size();
}

double SpeedGauge::scale(std::size_t from) const {
  Samples since;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = from; i < seconds_.size(); ++i) since.add(seconds_[i]);
  }
  return since.empty() ? 1 : kReferenceSeconds / since.median();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(const char* layer, const char* name) {
  if (!SpanRecorder::Get().enabled()) return;
  active_ = true;
  span_.layer = layer;
  span_.name = name;
  span_.tid = dhyfd::CurrentTraceTid();
  span_.start = Now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end = Now();
  SpanRecorder::Get().record(span_);
}

RegistryMark::RegistryMark(const dhyfd::MetricsRegistry& registry)
    : counters_(registry.counter_values()),
      hists_(registry.histogram_values()) {}

std::int64_t RegistryMark::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryMark::hist_sum(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? 0 : it->second.sum;
}

std::int64_t RegistryMark::hist_count(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? 0 : it->second.count;
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string MetricTable::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char num[64];
    std::snprintf(num, sizeof num, "%.9g", value);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + num +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

void LogMedians(const std::string& phase,
                const std::map<std::string, Samples>& samples, double scale) {
  char head[64];
  std::snprintf(head, sizeof head, " (speed scale %.3f):", scale);
  std::string line = "perfbench: " + phase + head;
  for (const auto& [key, values] : samples) {
    char buf[128];
    std::snprintf(buf, sizeof buf, " %s %.4f s (max %.4f, n=%zu)", key.c_str(),
                  values.median(), values.quantile(1), values.size());
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Fnv64Hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench

#include "trace_report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/trace.h"

namespace perfbench {
namespace {

/// Now() minus the tracer clock, fixed when tracing starts.
double g_tracer_offset = 0;

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool EndsWith(const char* s, const char* suffix) {
  std::size_t n = std::strlen(s), m = std::strlen(suffix);
  return n >= m && std::strcmp(s + n - m, suffix) == 0;
}

/// Layer of a program span, by its schema name; nullptr drops the span.
const char* LayerOf(const char* name) {
  if (EndsWith(name, "queue_wait") || std::strcmp(name, "net.rpc") == 0) {
    return nullptr;
  }
  if (std::strcmp(name, "discover.induction") == 0) return "fdtree";
  if (StartsWith(name, "discover.") || StartsWith(name, "pool.")) return "algo";
  if (std::strcmp(name, "profile.encode") == 0) return "relation";
  if (std::strcmp(name, "profile.discover") == 0) return "algo";
  if (std::strcmp(name, "profile.canonical") == 0) return "fd";
  if (std::strcmp(name, "profile.rank") == 0) return "ranking";
  if (StartsWith(name, "svc.")) return "service";
  if (StartsWith(name, "query.")) return "query";
  if (StartsWith(name, "incr.")) return "incr";
  if (StartsWith(name, "net.")) return "net";
  return "other";
}

}  // namespace

const std::vector<std::string>& SpanLayers() {
  static const std::vector<std::string> layers = {
      "relation", "fdtree", "algo", "fd", "ranking",
      "service", "query", "incr", "net"};
  return layers;
}

void StartTracing() {
  dhyfd::Tracer& tracer = dhyfd::Tracer::Global();
  tracer.start();
  g_tracer_offset = Now() - static_cast<double>(tracer.now_us()) / 1e6;
  SpanRecorder::Get().enable(true);
}

void StopTracing() {
  dhyfd::Tracer::Global().stop();
  SpanRecorder::Get().enable(false);
}

std::vector<Span> CollectSpans() {
  std::vector<Span> out = SpanRecorder::Get().spans();
  for (const dhyfd::TraceEvent& ev : dhyfd::Tracer::Global().drain()) {
    if (ev.phase != 'X' || ev.name == nullptr) continue;
    const char* layer = LayerOf(ev.name);
    if (layer == nullptr) continue;
    Span s;
    s.layer = layer;
    s.name = ev.name;
    s.start = static_cast<double>(ev.ts_us) / 1e6 + g_tracer_offset;
    s.end = s.start + static_cast<double>(ev.dur_us) / 1e6;
    s.tid = ev.tid;
    out.push_back(s);
  }
  return out;
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans,
                                          double from, double to,
                                          bool by_name) {
  std::vector<const Span*> sel;
  for (const Span& s : spans) {
    if (s.start >= from && s.start < to) sel.push_back(&s);
  }
  std::sort(sel.begin(), sel.end(), [](const Span* a, const Span* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start != b->start) return a->start < b->start;
    return a->end > b->end;
  });
  std::vector<double> self(sel.size());
  std::vector<std::size_t> stack;
  double covered_until = 0;  // union of top-level spans on this lane so far
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const Span& s = *sel[i];
    if (i > 0 && sel[i - 1]->tid != s.tid) {
      stack.clear();
      covered_until = 0;
    }
    // Pop enclosing candidates that do not contain this span.
    while (!stack.empty() && sel[stack.back()]->end < s.end) stack.pop_back();
    if (!stack.empty() && std::strcmp(sel[stack.back()]->name, s.name) == 0) {
      // A pipelined request answered inside an earlier one's interval: the
      // lane was busy anyway.
      self[i] = 0;
      continue;
    }
    if (!stack.empty()) {
      self[i] = s.end - s.start;
      self[stack.back()] -= self[i];
    } else {
      // Top-level spans that overlap without nesting (pipelined requests
      // on one connection lane) count the lane's busy time once.
      self[i] = std::max(0.0, s.end - std::max(s.start, covered_until));
      covered_until = std::max(covered_until, s.end);
    }
    stack.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    out[by_name ? sel[i]->name : sel[i]->layer] += std::max(0.0, self[i]);
  }
  return out;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.1f, \"dur\": %.1f, \"pid\": 1, \"tid\": %u}%s\n",
                  s.name, s.layer, s.start * 1e6, (s.end - s.start) * 1e6,
                  s.tid, i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace perfbench

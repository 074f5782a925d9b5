// Folds the benchmark's own spans and the program's existing tracer spans
// into per-layer self times, and writes them out as one Chrome trace.

#ifndef PERFBENCH_RUNNER_TRACE_REPORT_H_
#define PERFBENCH_RUNNER_TRACE_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Layers that report a self time (`<layer>.self_s`).
const std::vector<std::string>& SpanLayers();

/// Starts the program's global tracer (discover.*, profile.*, svc.*, incr.*,
/// net.* spans) and the benchmark's recorder together.
void StartTracing();
void StopTracing();

/// The benchmark's spans plus the program's, on one clock (Now() seconds),
/// each tagged with the layer it belongs to. Queue-wait and request-envelope
/// spans are dropped: they measure waiting, which the phases report from
/// sums instead.
std::vector<Span> CollectSpans();

/// Self time (duration minus the part covered by spans nested inside it on
/// the same thread) summed per key — the layer, or with `by_name` the span
/// name — over spans starting in [from, to).
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans,
                                          double from, double to,
                                          bool by_name);

/// Chrome trace-event JSON of `spans` (complete events, µs).
void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_TRACE_REPORT_H_

// Serializers for the observability bundle.
//
//  - write_trace_jsonl: one JSON object per line per trace event.
//  - write_prometheus: Prometheus text exposition of the metrics snapshot.
//  - write_chrome_trace: Chrome trace-event JSON (open in Perfetto or
//    chrome://tracing). One process track per cluster with a thread per job,
//    plus a "market" process whose threads are client submissions.
//
// Each writer exists once. Trace input is always a TraceView, the
// time-ordered copy of the ring that GridSystem::merged_trace() returns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/ids.hpp"

namespace faucets::obs {

class TraceView;
class MetricsRegistry;
class SpanTracker;
struct TraceEvent;

/// Shortest round-trippable decimal (%.17g); JSON has no Inf/NaN, so those
/// map to 0. Every artifact writer formats doubles through this.
[[nodiscard]] std::string json_number(double v);
/// `in` escaped for a JSON string literal (quotes, backslashes, control
/// characters). Every JSON writer in the library escapes through this.
[[nodiscard]] std::string json_escape(std::string_view in);

/// Serialize one trace event as a single JSONL line (newline included) —
/// the exact line write_trace_jsonl emits for it. The live plane's
/// /traces/recent endpoint reuses this so live and post-hoc JSONL agree.
void write_trace_event_jsonl(std::ostream& os, const TraceEvent& ev);

/// One JSON object per line per trace event. When the bounded ring dropped
/// events, the first line is a meta object ({"meta":"trace","dropped":N,...})
/// so consumers know the window is truncated instead of silently partial.
void write_trace_jsonl(std::ostream& os, const TraceView& trace);

/// Prometheus text exposition of the metrics snapshot. When `trace` is given
/// and its ring dropped events, a synthetic faucets_trace_dropped_total
/// counter is appended so scrapes surface the data loss.
void write_prometheus(std::ostream& os, const MetricsRegistry& metrics,
                      const TraceView* trace = nullptr);
/// The synthetic faucets_trace_dropped_total counter write_prometheus
/// appends; writes nothing when `dropped` is 0.
void write_prometheus_trace_dropped(std::ostream& os, std::uint64_t dropped);

struct ChromeTraceOptions {
  /// Display names for cluster process tracks, parallel-indexed by
  /// ClusterId value; clusters beyond the list fall back to "cluster-N".
  std::vector<std::string> cluster_names;
};

void write_chrome_trace(std::ostream& os, const SpanTracker& spans,
                        const TraceView& trace,
                        const ChromeTraceOptions& options = {});

}  // namespace faucets::obs

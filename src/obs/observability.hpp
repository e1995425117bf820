// The observability bundle SimContext owns: what entities record into —
// one trace ring, one metrics registry, one span tracker per simulation.
// Entities reach it through ctx.trace() / ctx.metrics() / ctx.spans();
// exporters (src/obs/exporters.hpp, src/obs/report.hpp) serialize it after
// the run. The optional observers that only read the run (time-series
// sampler, host-time profiler, live plane) belong to GridSystem.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs {

class Observability {
 public:
  /// `trace_capacity` is the ring's size in events, rounded up to a power
  /// of two.
  explicit Observability(std::size_t trace_capacity = 1 << 16)
      : trace_(trace_capacity) {}

  [[nodiscard]] TraceBuffer& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] SpanTracker& spans() noexcept { return spans_; }
  [[nodiscard]] const SpanTracker& spans() const noexcept { return spans_; }

 private:
  TraceBuffer trace_;
  MetricsRegistry metrics_;
  SpanTracker spans_;
};

}  // namespace faucets::obs

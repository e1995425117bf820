// The observability bundle SimContext owns: one trace ring, one metrics
// registry, one span tracker, one time-series sampler per simulation.
// Entities reach it through ctx.trace() / ctx.metrics() / ctx.spans() /
// ctx.sampler(); exporters (src/obs/exporters.hpp, src/obs/report.hpp)
// serialize it after the run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/obs/sampler.hpp"
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
  [[nodiscard]] Sampler& sampler() noexcept { return sampler_; }
  [[nodiscard]] const Sampler& sampler() const noexcept { return sampler_; }

 private:
  TraceBuffer trace_;
  MetricsRegistry metrics_;
  SpanTracker spans_;
  Sampler sampler_;
};

}  // namespace faucets::obs

// SimContext: the simulation substrate of one run, and the one way an
// entity reaches it.
//
// A run of the simulated grid needs an event Engine, the three recorders
// entities write into (the trace ring, the metrics registry and the span
// tracker) and the Network fabric. SimContext owns all five, so an entity
// constructor takes one reference and an entity keeps one pointer:
// Entity::engine(), now() and network() read through it. The Engine is the
// first member and its clock is the Engine's first member, so now() costs
// the same two loads a private Engine* copy would.
#pragma once

#include <cstddef>

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/network.hpp"

namespace faucets::sim {

class SimContext {
 public:
  /// Capacity of the trace ring, in events.
  static constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

  SimContext() : trace_(kTraceCapacity), network_(engine_, trace_, metrics_) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const Network& network() const noexcept { return network_; }
  [[nodiscard]] obs::TraceBuffer& trace() noexcept { return trace_; }
  [[nodiscard]] const obs::TraceBuffer& trace() const noexcept { return trace_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] obs::SpanTracker& spans() noexcept { return spans_; }
  [[nodiscard]] const obs::SpanTracker& spans() const noexcept { return spans_; }

  [[nodiscard]] SimTime now() const noexcept { return engine_.now(); }

 private:
  // Members construct in this order: the Network counts traffic in the
  // registry and traces drops into the ring, so both precede it.
  Engine engine_;  // first: see the header comment
  obs::TraceBuffer trace_;
  obs::MetricsRegistry metrics_;
  obs::SpanTracker spans_;
  Network network_;
};

// Defined here rather than in entity.hpp so entity.hpp need not include the
// Network/obs headers (SimContext is only forward-declared there).
inline Entity::Entity(std::string name, SimContext& ctx)
    : name_(std::move(name)), ctx_(&ctx) {}
inline Engine& Entity::engine() const noexcept { return ctx_->engine(); }
inline SimTime Entity::now() const noexcept { return ctx_->now(); }
inline Network& Entity::network() const noexcept { return ctx_->network(); }

}  // namespace faucets::sim

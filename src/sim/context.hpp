// SimContext: the single seam through which entities reach the simulation
// substrate.
//
// One run of the simulated grid needs an event Engine, a Network fabric, the
// observability bundle (trace ring + metrics registry + span tracker), and a
// deterministic RNG. Before this type existed every entity constructor took a
// raw Engine&/Network& pair and tests wired the pieces by hand; SimContext
// bundles them so a constructor signature is one reference, and per-run
// instrumentation has an obvious home.
#pragma once

#include <cstdint>

#include "src/obs/observability.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/network.hpp"
#include "src/util/rng.hpp"

namespace faucets::sim {

/// Bounded typed trace store; see src/obs/trace.hpp.
using TraceSink = obs::TraceBuffer;

/// Tunables for one simulation run.
struct SimConfig {
  NetworkConfig network{};
  /// Seed of the run RNG; the default matches faucets::Rng's default.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Capacity of the bounded trace ring (rounded up to a power of two).
  std::size_t trace_capacity = 1 << 16;
};

/// Owns the Engine, Network, observability bundle, and run RNG of one
/// simulation; the Observability is constructed before the Network because
/// the Network records drops into the trace ring.
class SimContext {
 public:
  SimContext() : SimContext(SimConfig{}) {}
  explicit SimContext(SimConfig config)
      : obs_(config.trace_capacity),
        network_(engine_, config.network, &obs_),
        rng_(config.seed) {}
  explicit SimContext(NetworkConfig network) : SimContext(SimConfig{.network = network}) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const Network& network() const noexcept { return network_; }
  [[nodiscard]] obs::Observability& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const noexcept { return obs_; }
  [[nodiscard]] obs::TraceBuffer& trace() noexcept { return obs_.trace(); }
  [[nodiscard]] const obs::TraceBuffer& trace() const noexcept { return obs_.trace(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return obs_.metrics(); }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return obs_.metrics();
  }
  [[nodiscard]] obs::SpanTracker& spans() noexcept { return obs_.spans(); }
  [[nodiscard]] const obs::SpanTracker& spans() const noexcept { return obs_.spans(); }
  [[nodiscard]] obs::Sampler& sampler() noexcept { return obs_.sampler(); }
  [[nodiscard]] const obs::Sampler& sampler() const noexcept { return obs_.sampler(); }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  [[nodiscard]] SimTime now() const noexcept { return engine_.now(); }

 private:
  Engine engine_;
  obs::Observability obs_;
  Network network_;
  Rng rng_;
};

// Defined here rather than in entity.hpp so entity.hpp need not include the
// Network/obs headers (SimContext is only forward-declared there).
inline Entity::Entity(std::string name, SimContext& ctx)
    : name_(std::move(name)),
      ctx_(&ctx),
      engine_(&ctx.engine()),
      network_(&ctx.network()) {}

}  // namespace faucets::sim

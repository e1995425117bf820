// Deterministic fault injection for the simulated network.
//
// The injector sits inside Network::send and decides, per message, whether
// the wire loses it (seeded Bernoulli loss), delays it (uniform jitter), or
// blackholes it because an endpoint is inside a partition window. Decisions
// come from a private xoshiro stream seeded independently of the workload
// RNG, so enabling faults never perturbs job generation, and the same
// FaultConfig always produces the same drop pattern. When no faults are
// configured the injector consumes zero random numbers and existing runs
// stay byte-identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/util/ids.hpp"
#include "src/util/rng.hpp"

namespace faucets::sim {

/// One link-partition window: every message to or from `isolated` is dropped
/// while `from <= now < until`. Modeling the partition as one unreachable
/// entity covers the interesting grid cases (a WAN-cut cluster daemon, an
/// unreachable Central Server) with a trivially scriptable config.
struct Partition {
  EntityId isolated;
  double from = 0.0;
  double until = 0.0;
};

struct FaultConfig {
  /// Probability in [0, 1] that any message is silently lost.
  double loss_rate = 0.0;
  /// Extra uniform delay in [0, jitter) seconds added to every delivery.
  double jitter = 0.0;
  /// Seed of the injector's private RNG stream.
  std::uint64_t seed = 0xfa0c7e75ULL;
  std::vector<Partition> partitions;

  [[nodiscard]] bool any() const noexcept {
    return loss_rate > 0.0 || jitter > 0.0 || !partitions.empty();
  }
};

class FaultInjector {
 public:
  /// What send() should do with one message.
  struct Verdict {
    bool drop = false;
    obs::DropReason reason = obs::DropReason::kFaultInjected;
    double extra_delay = 0.0;
  };

  FaultInjector() = default;

  void configure(FaultConfig config) {
    config_ = std::move(config);
    rng_.reseed(config_.seed);
    enabled_ = config_.any();
  }

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Decide the fate of one message. Allocation-free and, when no faults are
  /// configured, a single branch that touches no RNG state. Loopback
  /// (from == to) models in-process delivery and is never faulted.
  [[nodiscard]] Verdict inspect(EntityId from, EntityId to, double now) noexcept {
    Verdict v;
    if (!enabled_ || from == to) return v;
    if (partitioned(from, now) || partitioned(to, now)) {
      v.drop = true;
      v.reason = obs::DropReason::kPartitioned;
      return v;
    }
    if (config_.loss_rate > 0.0 && rng_.bernoulli(config_.loss_rate)) {
      v.drop = true;
      v.reason = obs::DropReason::kFaultInjected;
      return v;
    }
    if (config_.jitter > 0.0) v.extra_delay = rng_.uniform(0.0, config_.jitter);
    return v;
  }

  /// Is `entity` inside any partition window at `now`?
  [[nodiscard]] bool partitioned(EntityId entity, double now) const noexcept {
    for (const Partition& p : config_.partitions) {
      if (p.isolated == entity && now >= p.from && now < p.until) return true;
    }
    return false;
  }

 private:
  FaultConfig config_;
  Rng rng_{0xfa0c7e75ULL};
  bool enabled_ = false;
};

}  // namespace faucets::sim

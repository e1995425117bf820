// Simulated network: delivers messages between entities with configurable
// latency and bandwidth, and counts traffic for the scalability experiments
// (E7 in DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/faults.hpp"

namespace faucets::obs {
class Observability;
class Counter;
class Gauge;
class Histogram;
class ProfilerLane;
}

namespace faucets::sim {

/// Latency/bandwidth parameters of the simulated WAN connecting the grid.
struct NetworkConfig {
  /// One-way base latency between any two distinct entities, seconds.
  double base_latency = 0.010;
  /// Bytes per second for the bandwidth term; 0 disables it.
  double bandwidth = 1.25e8;  // ~1 Gbit/s
  /// Latency for an entity messaging itself (local loopback).
  double local_latency = 1e-6;
};

/// Registry of entities plus the message-passing fabric. Single instance per
/// simulation.
class Network {
 public:
  explicit Network(Engine& engine, NetworkConfig config = {},
                   obs::Observability* obs = nullptr);

  /// Register an entity; assigns its EntityId. The caller keeps ownership.
  EntityId attach(Entity& entity);

  /// Remove an entity (e.g. a Compute Server going down). In-flight messages
  /// to it are dropped on delivery (traced as kNetDrop events).
  void detach(EntityId id);

  /// Re-register a previously attached entity under its existing id — a
  /// crashed daemon coming back keeps its address, so directory entries and
  /// clients' stored EntityIds stay valid across the restart.
  void reattach(Entity& entity);

  /// Send a message; ownership transfers. Fills in from/to/sent_at and
  /// schedules delivery after the modeled delay. Messages from a detached
  /// sender or to a receiver gone by delivery time are dropped with a typed
  /// kNetDrop trace event and counted in messages_dropped().
  void send(const Entity& from, EntityId to, MessagePtr msg);

  [[nodiscard]] Entity* find(EntityId id) const;
  /// Messages sent + delivered involving one entity (scalability metric:
  /// "impractical for each client to deal with a flood of bids", §5.3).
  [[nodiscard]] std::uint64_t traffic_of(EntityId id) const;
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return messages_delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// Configure deterministic fault injection (loss, jitter, partitions).
  /// May be called after construction but before (or between) runs.
  void set_faults(FaultConfig faults) { faults_.configure(std::move(faults)); }
  [[nodiscard]] const FaultInjector& faults() const noexcept { return faults_; }
  /// Swap the loss/jitter treatment mid-run without reseeding the injector's
  /// RNG (warm-fork sweeps; see FaultInjector::set_treatment).
  void set_fault_treatment(double loss_rate, double jitter) noexcept {
    faults_.set_treatment(loss_rate, jitter);
  }

  /// Messages dropped for one specific reason (lifecycle or injected).
  [[nodiscard]] std::uint64_t dropped_of(obs::DropReason reason) const noexcept {
    return dropped_by_reason_[static_cast<std::size_t>(reason)];
  }

  /// Per-kind traffic counters, indexed by MessageKind.
  using KindCounters = std::array<std::uint64_t, kMessageKindCount>;
  [[nodiscard]] const KindCounters& sent_by_kind() const noexcept { return sent_by_kind_; }
  [[nodiscard]] const KindCounters& delivered_by_kind() const noexcept {
    return delivered_by_kind_;
  }
  [[nodiscard]] std::uint64_t sent_of(MessageKind kind) const noexcept {
    return sent_by_kind_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t delivered_of(MessageKind kind) const noexcept {
    return delivered_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Where drop events and fabric counters go; may be null (no observability).
  void set_observability(obs::Observability* obs);

  /// Delay a payload of `bytes` experiences between `from` and `to`.
  [[nodiscard]] double delay(EntityId from, EntityId to, std::size_t bytes) const noexcept;

  /// Reset traffic counters (used between benchmark phases).
  void reset_counters() noexcept;

  /// Attach the host-time profiler lane (DESIGN.md §12): deliver()
  /// tags the in-flight event with (MessageKind, entity class) so the
  /// engine's timestamp pair lands in the right attribution buckets.
  void set_profiler(obs::ProfilerLane* lane) noexcept { prof_ = lane; }

 private:
  void drop(MessageKind kind, EntityId at, EntityId peer, obs::DropReason reason);
  void register_metrics();
  void deliver(MessageKind kind, MessagePtr msg);

  Engine* engine_;
  NetworkConfig config_;
  obs::Observability* obs_;
  obs::ProfilerLane* prof_ = nullptr;  // host-time recorder; null = off
  // Registry instruments, resolved once so the send path never does a
  // by-name lookup. Null when obs_ is null.
  obs::Counter* sent_ctr_ = nullptr;
  obs::Counter* delivered_ctr_ = nullptr;
  obs::Counter* dropped_ctr_ = nullptr;
  obs::Counter* bytes_ctr_ = nullptr;
  std::unordered_map<EntityId, Entity*> entities_;
  std::unordered_map<EntityId, std::uint64_t> per_entity_traffic_;
  std::uint64_t next_id_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  KindCounters sent_by_kind_{};
  KindCounters delivered_by_kind_{};
  std::array<std::uint64_t, obs::kDropReasonCount> dropped_by_reason_{};
  FaultInjector faults_;
};

}  // namespace faucets::sim

// Simulated network: delivers messages between entities after a fixed
// latency plus a bandwidth term (DESIGN.md §6.4), and counts traffic for the
// scalability experiments (E7 in DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/faults.hpp"

namespace faucets::obs {
class ProfilerLane;
}

namespace faucets::sim {

/// Registry of entities plus the message-passing fabric. Single instance per
/// simulation.
class Network {
 public:
  /// One-way latency between two distinct entities, seconds.
  static constexpr double kBaseLatency = 0.010;
  /// Latency of an entity messaging itself (local loopback), seconds.
  static constexpr double kLocalLatency = 1e-6;
  /// Bytes per second of the bandwidth term (~1 Gbit/s).
  static constexpr double kBandwidth = 1.25e8;

  /// Traffic is counted in `metrics` (faucets_net_*_total) and drops are
  /// traced into `trace`.
  Network(Engine& engine, obs::TraceBuffer& trace, obs::MetricsRegistry& metrics);

  /// Register an entity; assigns its EntityId. The caller keeps ownership.
  /// Ids are dense (0, 1, 2, ...) and index the entity table directly.
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

  /// The attached entity with this id, or null (detached, never attached,
  /// or invalid).
  [[nodiscard]] Entity* find(EntityId id) const;
  /// Messages sent + delivered involving one entity (scalability metric:
  /// "impractical for each client to deal with a flood of bids", §5.3).
  /// 0 for an id this network never handed out.
  [[nodiscard]] std::uint64_t traffic_of(EntityId id) const;
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_ctr_->value(); }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_ctr_->value();
  }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return dropped_ctr_->value();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_ctr_->value(); }

  /// Configure deterministic fault injection (loss, jitter, partitions).
  /// May be called after construction but before (or between) runs.
  void set_faults(FaultConfig faults) { faults_.configure(std::move(faults)); }
  [[nodiscard]] const FaultInjector& faults() const noexcept { return faults_; }

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

  /// Delay a payload of `bytes` experiences between `from` and `to`.
  [[nodiscard]] static double delay(EntityId from, EntityId to,
                                    std::size_t bytes) noexcept {
    return (from == to ? kLocalLatency : kBaseLatency) +
           static_cast<double>(bytes) / kBandwidth;
  }

  /// Reset traffic counters (used between benchmark phases).
  void reset_counters() noexcept;

  /// Attach the host-time profiler lane (DESIGN.md §12): deliver()
  /// tags the in-flight event with (MessageKind, entity class) so the
  /// engine's timestamp pair lands in the right attribution buckets.
  void set_profiler(obs::ProfilerLane* lane) noexcept { prof_ = lane; }

 private:
  /// One row of the entity table, indexed by EntityId value.
  struct Slot {
    Entity* entity = nullptr;  // null while detached
    std::uint64_t traffic = 0;
  };

  /// The row of `id`, or null for an id never handed out (EntityId{}
  /// included).
  [[nodiscard]] Slot* slot(EntityId id) noexcept {
    return id.value() < slots_.size() ? &slots_[id.value()] : nullptr;
  }
  void drop(MessageKind kind, EntityId at, EntityId peer, obs::DropReason reason);
  void deliver(MessageKind kind, MessagePtr msg);

  Engine* engine_;
  obs::TraceBuffer* trace_;
  obs::ProfilerLane* prof_ = nullptr;  // host-time recorder; null = off
  // Registry instruments, resolved once so the send path never does a
  // by-name lookup; the fabric's totals live only here.
  obs::Counter* sent_ctr_;
  obs::Counter* delivered_ctr_;
  obs::Counter* dropped_ctr_;
  obs::Counter* bytes_ctr_;
  std::vector<Slot> slots_;  // attach() hands out ids 0, 1, 2, ...
  KindCounters sent_by_kind_{};
  KindCounters delivered_by_kind_{};
  std::array<std::uint64_t, obs::kDropReasonCount> dropped_by_reason_{};
  FaultInjector faults_;
};

}  // namespace faucets::sim

#include "src/sim/network.hpp"

#include <utility>

#include "src/obs/observability.hpp"
#include "src/obs/profiler.hpp"

namespace faucets::sim {

// Kind slot 0 is reserved for timer/no-message events; every MessageKind
// must fit in the lanes' fixed attribution arrays.
static_assert(kMessageKindCount + 1 <= obs::ProfilerLane::kKindSlots,
              "grow ProfilerLane::kKindSlots to fit MessageKind");

Network::Network(Engine& engine, NetworkConfig config, obs::Observability* obs)
    : engine_(&engine), config_(config), obs_(obs) {
  register_metrics();
}

void Network::set_observability(obs::Observability* obs) {
  obs_ = obs;
  sent_ctr_ = delivered_ctr_ = dropped_ctr_ = bytes_ctr_ = nullptr;
  register_metrics();
}

void Network::register_metrics() {
  if (obs_ == nullptr) return;
  auto& m = obs_->metrics();
  sent_ctr_ = &m.counter("faucets_net_messages_sent_total",
                         "Messages put on the wire");
  delivered_ctr_ = &m.counter("faucets_net_messages_delivered_total",
                              "Messages handed to a receiver");
  dropped_ctr_ = &m.counter("faucets_net_messages_dropped_total",
                            "Messages lost to a detached sender or receiver");
  bytes_ctr_ = &m.counter("faucets_net_bytes_sent_total",
                          "Payload bytes put on the wire");
}

EntityId Network::attach(Entity& entity) {
  const EntityId id{next_id_++};
  entity.id_ = id;
  entity.network_ = this;
  entities_.emplace(id, &entity);
  return id;
}

void Network::detach(EntityId id) { entities_.erase(id); }

void Network::reattach(Entity& entity) {
  entity.network_ = this;
  entities_.emplace(entity.id_, &entity);
}

Entity* Network::find(EntityId id) const {
  auto it = entities_.find(id);
  return it == entities_.end() ? nullptr : it->second;
}

double Network::delay(EntityId from, EntityId to, std::size_t bytes) const noexcept {
  double d = from == to ? config_.local_latency : config_.base_latency;
  if (config_.bandwidth > 0) d += static_cast<double>(bytes) / config_.bandwidth;
  return d;
}

void Network::drop(MessageKind kind, EntityId at, EntityId peer,
                   obs::DropReason reason) {
  ++messages_dropped_;
  ++dropped_by_reason_[static_cast<std::size_t>(reason)];
  if (obs_ != nullptr) {
    obs_->trace().record(obs::net_event(engine_->now(), at, peer,
                                        static_cast<std::uint8_t>(kind), reason));
    dropped_ctr_->inc();
  }
}

void Network::send(const Entity& from, EntityId to, MessagePtr msg) {
  const MessageKind kind = msg->kind();
  if (entities_.find(from.id()) == entities_.end()) {
    // A detached (crashed) entity cannot put anything on the wire.
    drop(kind, from.id(), to, obs::DropReason::kSenderDetached);
    return;
  }
  msg->from = from.id();
  msg->to = to;
  msg->sent_at = engine_->now();
  ++messages_sent_;
  ++sent_by_kind_[static_cast<std::size_t>(kind)];
  ++per_entity_traffic_[from.id()];
  ++per_entity_traffic_[to];
  bytes_sent_ += msg->size_bytes();
  if (sent_ctr_ != nullptr) {
    sent_ctr_->inc();
    bytes_ctr_->inc(msg->size_bytes());
  }
  double d = delay(from.id(), to, msg->size_bytes());
  // Fault injection happens after the sent-side accounting: a lost message
  // was genuinely put on the wire, it just never arrives.
  const FaultInjector::Verdict verdict = faults_.inspect(from.id(), to, engine_->now());
  if (verdict.drop) {
    drop(kind, from.id(), to, verdict.reason);
    return;
  }
  d += verdict.extra_delay;
  // SmallFunction accepts move-only captures, so the message rides in the
  // delivery event itself — no shared_ptr box, no extra allocation.
  engine_->schedule_after(d, [this, kind, msg = std::move(msg)]() mutable {
    deliver(kind, std::move(msg));
  });
}

void Network::deliver(MessageKind kind, MessagePtr msg) {
  Entity* target = find(msg->to);
  if (target == nullptr) {
    drop(kind, msg->to, msg->from, obs::DropReason::kReceiverDetached);
    return;
  }
  ++messages_delivered_;
  ++delivered_by_kind_[static_cast<std::size_t>(kind)];
  if (delivered_ctr_ != nullptr) delivered_ctr_->inc();
  if (prof_ != nullptr) {
    prof_->set_event_tag(1 + static_cast<std::size_t>(kind),
                         target->profile_class());
  }
  target->on_message(*msg);
}

std::uint64_t Network::traffic_of(EntityId id) const {
  auto it = per_entity_traffic_.find(id);
  return it == per_entity_traffic_.end() ? 0 : it->second;
}

void Network::reset_counters() noexcept {
  messages_sent_ = messages_delivered_ = messages_dropped_ = bytes_sent_ = 0;
  sent_by_kind_.fill(0);
  delivered_by_kind_.fill(0);
  dropped_by_reason_.fill(0);
  per_entity_traffic_.clear();
  if (sent_ctr_ != nullptr) {
    sent_ctr_->reset();
    delivered_ctr_->reset();
    dropped_ctr_->reset();
    bytes_ctr_->reset();
  }
}

}  // namespace faucets::sim

#include "src/sim/network.hpp"

#include <utility>

#include "src/obs/profiler.hpp"

namespace faucets::sim {

// Kind slot 0 is reserved for timer/no-message events; every MessageKind
// must fit in the lanes' fixed attribution arrays.
static_assert(kMessageKindCount + 1 <= obs::ProfilerLane::kKindSlots,
              "grow ProfilerLane::kKindSlots to fit MessageKind");

Network::Network(Engine& engine, obs::TraceBuffer& trace,
                 obs::MetricsRegistry& metrics)
    : engine_(&engine),
      trace_(&trace),
      sent_ctr_(&metrics.counter("faucets_net_messages_sent_total",
                                 "Messages put on the wire")),
      delivered_ctr_(&metrics.counter("faucets_net_messages_delivered_total",
                                      "Messages handed to a receiver")),
      dropped_ctr_(&metrics.counter("faucets_net_messages_dropped_total",
                                    "Messages lost to a detached sender or receiver")),
      bytes_ctr_(&metrics.counter("faucets_net_bytes_sent_total",
                                  "Payload bytes put on the wire")) {}

EntityId Network::attach(Entity& entity) {
  const EntityId id{slots_.size()};
  entity.id_ = id;
  slots_.push_back(Slot{&entity, 0});
  return id;
}

void Network::detach(EntityId id) {
  if (Slot* s = slot(id)) s->entity = nullptr;
}

void Network::reattach(Entity& entity) {
  // Only an id this network handed out can come back.
  slots_.at(entity.id_.value()).entity = &entity;
}

Entity* Network::find(EntityId id) const {
  return id.value() < slots_.size() ? slots_[id.value()].entity : nullptr;
}

void Network::drop(MessageKind kind, EntityId at, EntityId peer,
                   obs::DropReason reason) {
  dropped_ctr_->inc();
  ++dropped_by_reason_[static_cast<std::size_t>(reason)];
  trace_->record(obs::net_event(engine_->now(), at, peer,
                                static_cast<std::uint8_t>(kind), reason));
}

void Network::send(const Entity& from, EntityId to, MessagePtr msg) {
  const MessageKind kind = msg->kind();
  Slot* sender = slot(from.id());
  if (sender == nullptr || sender->entity == nullptr) {
    // A detached (crashed) entity cannot put anything on the wire.
    drop(kind, from.id(), to, obs::DropReason::kSenderDetached);
    return;
  }
  msg->from = from.id();
  msg->to = to;
  msg->sent_at = engine_->now();
  sent_ctr_->inc();
  ++sent_by_kind_[static_cast<std::size_t>(kind)];
  ++sender->traffic;
  // A receiver id never handed out still counts as sent; it drops on
  // delivery like a detached one.
  if (Slot* receiver = slot(to)) ++receiver->traffic;
  const std::size_t bytes = msg->size_bytes();
  bytes_ctr_->inc(bytes);
  double d = delay(from.id(), to, bytes);
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
  SmallFunction delivery{[this, kind, msg = std::move(msg)]() mutable {
    deliver(kind, std::move(msg));
  }};
  // A jittered delay does not recur: scheduled by absolute time, it stays
  // out of the engine's recurring-delay lanes.
  if (verdict.extra_delay > 0.0) {
    engine_->schedule_at(engine_->now() + d, std::move(delivery));
  } else {
    engine_->schedule_after(d, std::move(delivery));
  }
}

void Network::deliver(MessageKind kind, MessagePtr msg) {
  Entity* target = find(msg->to);
  if (target == nullptr) {
    drop(kind, msg->to, msg->from, obs::DropReason::kReceiverDetached);
    return;
  }
  delivered_ctr_->inc();
  ++delivered_by_kind_[static_cast<std::size_t>(kind)];
  if (prof_ != nullptr) {
    prof_->set_event_tag(1 + static_cast<std::size_t>(kind),
                         target->profile_class());
  }
  target->on_message(*msg);
}

std::uint64_t Network::traffic_of(EntityId id) const {
  return id.value() < slots_.size() ? slots_[id.value()].traffic : 0;
}

void Network::reset_counters() noexcept {
  sent_ctr_->reset();
  delivered_ctr_->reset();
  dropped_ctr_->reset();
  bytes_ctr_->reset();
  sent_by_kind_.fill(0);
  delivered_by_kind_.fill(0);
  dropped_by_reason_.fill(0);
  for (Slot& s : slots_) s.traffic = 0;
}

}  // namespace faucets::sim

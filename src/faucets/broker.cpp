#include "src/faucets/broker.hpp"

#include "src/sim/context.hpp"

namespace faucets {

BrokerAgent::BrokerAgent(sim::SimContext& ctx, EntityId central, RetryPolicy retry)
    : MarketRound("broker", ctx, central, retry) {
  register_retry_counters();
}

void BrokerAgent::on_message(const sim::Message& msg) {
  if (msg.kind() == sim::MessageKind::kSubmit) {
    handle_submit(sim::message_cast<proto::SubmitJobRequest>(msg));
    return;
  }
  MarketRound::on_message(msg);
}

MarketRound::Round* BrokerAgent::find_round(RequestId request) {
  auto it = pending_.find(request);
  return it == pending_.end() ? nullptr : &it->second;
}

const MarketRound::Principal& BrokerAgent::principal(const Round& round) const {
  return static_cast<const Pending&>(round).client;
}

void BrokerAgent::handle_submit(const proto::SubmitJobRequest& msg) {
  const auto key = std::make_pair(msg.from, msg.request);
  // A resend while the original cycle is still running: the answer is on its
  // way, starting a second market cycle would double-award the job.
  if (active_.contains(key)) return;
  // A resend of the same attempt after we already answered means our reply
  // was lost in transit: re-send the cached reply verbatim instead of
  // re-running the market. A higher attempt is a genuine resubmission (the
  // job was evicted, or the client opened a fresh bidding round) and gets a
  // whole new market cycle.
  if (auto done = replied_.find(key); done != replied_.end()) {
    if (msg.attempt <= done->second.first) {
      network().send(*this, msg.from,
                      std::make_unique<proto::SubmitJobReply>(done->second.second));
      return;
    }
    replied_.erase(done);
  }

  ++submissions_;
  const RequestId id = ids_.next();
  Pending pending;
  pending.contract = msg.contract;
  pending.evaluator = msg.evaluator;
  pending.home = msg.home;
  pending.notify = msg.from;  // completion notices bypass the broker
  pending.notify_request = msg.request;
  pending.root = msg.span;
  pending.client_attempt = msg.attempt;
  pending.client = {msg.session, msg.user, msg.username, msg.password};
  pending_.emplace(id, std::move(pending));
  active_.emplace(key, id);
  request_directory(id);
}

void BrokerAgent::on_awarded(RequestId request, Round& round,
                             const proto::AwardAck& ack) {
  ++placed_;
  context().spans().end_span(round.award, now());
  proto::SubmitJobReply reply;
  reply.request = round.notify_request;
  reply.status = proto::SubmitStatus::kPlaced;
  reply.daemon = ack.from;
  reply.job = ack.job;
  reply.price = ack.price;
  reply.promised_completion = round.promised_completion;
  reply.bids_offered = round.offered;
  reply.cluster = round.winner_cluster;
  reply_to_client(request, std::move(reply));
}

void BrokerAgent::on_round_failed(RequestId request, proto::SubmitStatus status) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  ++failed_;
  Pending& pending = it->second;
  pending.dir_retry.settle();
  pending.award_retry.settle();
  pending.bid_timer.cancel();
  auto& spans = context().spans();
  spans.end_span(pending.rfb, now());
  spans.end_span(pending.award, now());
  proto::SubmitJobReply reply;
  reply.request = pending.notify_request;
  reply.status = status;
  reply.bids_offered = pending.offered;
  reply_to_client(request, std::move(reply));
}

void BrokerAgent::reply_to_client(RequestId id, proto::SubmitJobReply reply) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const auto key = std::make_pair(it->second.notify, it->second.notify_request);
  replied_[key] = {it->second.client_attempt, reply};
  network().send(*this, it->second.notify,
                  std::make_unique<proto::SubmitJobReply>(std::move(reply)));
  active_.erase(key);
  pending_.erase(it);
}

}  // namespace faucets

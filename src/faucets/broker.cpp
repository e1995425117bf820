#include "src/faucets/broker.hpp"

#include <algorithm>

#include "src/sim/context.hpp"
#include "src/util/logging.hpp"

namespace faucets {

BrokerAgent::BrokerAgent(sim::SimContext& ctx, EntityId central, BrokerConfig config)
    : sim::Entity("broker", ctx),
      network_(&ctx.network()),
      central_(central),
      config_(config) {
  network_->attach(*this);
  auto& reg = ctx.metrics();
  retry_attempts_ctr_ = &reg.counter("faucets_retry_attempts_total",
                                     "Protocol exchanges re-sent after a timeout");
  retry_timeouts_ctr_ = &reg.counter("faucets_retry_timeouts_total",
                                     "Reply timeouts across all exchanges");
  retry_exhausted_ctr_ = &reg.counter("faucets_retry_exhausted_total",
                                      "Exchanges abandoned after the full "
                                      "backoff schedule");
}

std::unique_ptr<market::BidEvaluator> BrokerAgent::evaluator_for(
    proto::SelectionCriteria criteria) {
  switch (criteria) {
    case proto::SelectionCriteria::kLeastCost:
      return std::make_unique<market::LeastCostEvaluator>();
    case proto::SelectionCriteria::kEarliestCompletion:
      return std::make_unique<market::EarliestCompletionEvaluator>();
    case proto::SelectionCriteria::kSurplus:
      return std::make_unique<market::SurplusEvaluator>();
  }
  return std::make_unique<market::LeastCostEvaluator>();
}

void BrokerAgent::record_retry(RequestId id, int attempt) {
  retry_attempts_ctr_->inc();
  context().trace().record(obs::market_event(
      now(), this->id(), obs::TraceEventKind::kRetryAttempt, id, BidId{},
      static_cast<double>(attempt)));
}

void BrokerAgent::record_timeout(sim::MessageKind kind, EntityId peer) {
  retry_timeouts_ctr_->inc();
  context().trace().record(obs::net_event(now(), id(), peer,
                                          static_cast<std::uint8_t>(kind),
                                          obs::DropReason::kTimeout));
}

void BrokerAgent::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kSubmit:
      handle_submit(sim::message_cast<proto::SubmitJobRequest>(msg));
      break;
    case sim::MessageKind::kDirectoryReply:
      handle_directory(sim::message_cast<proto::DirectoryReply>(msg));
      break;
    case sim::MessageKind::kBid:
      handle_bid(sim::message_cast<proto::BidReply>(msg));
      break;
    case sim::MessageKind::kReserveAck:
      handle_reserve_reply(sim::message_cast<proto::ReserveReply>(msg));
      break;
    case sim::MessageKind::kAwardAck:
      handle_award_ack(sim::message_cast<proto::AwardAck>(msg));
      break;
    default:
      break;
  }
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
      network_->send(*this, msg.from,
                     std::make_unique<proto::SubmitJobReply>(done->second.second));
      return;
    }
    replied_.erase(done);
  }

  ++submissions_;
  const RequestId id = ids_.next();
  Pending pending;
  pending.client = msg.from;
  pending.client_request = msg.request;
  pending.client_attempt = msg.attempt;
  pending.session = msg.session;
  pending.user = msg.user;
  pending.username = msg.username;
  pending.password = msg.password;
  pending.criteria = msg.criteria;
  pending.contract = msg.contract;
  pending.root = msg.span;
  pending_.emplace(id, std::move(pending));
  active_.emplace(key, id);
  send_directory_request(id);
}

void BrokerAgent::send_directory_request(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.awaiting_directory = true;
  auto dir = std::make_unique<proto::DirectoryRequest>();
  dir->request = id;
  dir->session = pending.session;
  dir->contract = pending.contract;
  network_->send(*this, central_, std::move(dir));
  const double timeout = pending.dir_retry.arm(config_.retry);
  pending.dir_retry.set_timer(engine().schedule_after(
      timeout, [this, id] { on_directory_timeout(id); }));
}

void BrokerAgent::on_directory_timeout(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  record_timeout(sim::MessageKind::kDirectoryRequest, central_);
  if (pending.dir_retry.exhausted(config_.retry)) {
    retry_exhausted_ctr_->inc();
    context().trace().record(obs::market_event(
        now(), this->id(), obs::TraceEventKind::kRetryExhausted, id, BidId{},
        static_cast<double>(pending.dir_retry.attempts())));
    fail(id, "directory timeout");
    return;
  }
  record_retry(id, pending.dir_retry.attempts());
  send_directory_request(id);
}

void BrokerAgent::handle_directory(const proto::DirectoryReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  // A duplicate reply (ours timed out but both landed) must not fan out a
  // second round of RFBs on top of a live one.
  if (!pending.awaiting_directory) return;
  pending.awaiting_directory = false;
  pending.dir_retry.settle();
  if (msg.servers.empty()) {
    fail(msg.request, "no matching servers");
    return;
  }
  pending.rfb = context().spans().start_span(obs::SpanKind::kRfb, now(), id(),
                                             pending.root);
  context().trace().record(obs::market_event(
      now(), id(), obs::TraceEventKind::kRfbIssued, msg.request, BidId{},
      static_cast<double>(msg.servers.size())));
  pending.expected_bids = msg.servers.size();
  for (const auto& server : msg.servers) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = msg.request;
    rfb->username = pending.username;
    rfb->password = pending.password;
    rfb->contract = pending.contract;
    network_->send(*this, server.daemon, std::move(rfb));
  }
  pending.timeout = engine().schedule_after(
      config_.bid_timeout, [this, id = msg.request] { evaluate(id); });
}

void BrokerAgent::handle_bid(const proto::BidReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.evaluated) return;
  if (!msg.bid.declined) {
    context().spans().instant_span(obs::SpanKind::kBid, now(), id(),
                                   pending.rfb, msg.bid.price);
  }
  pending.bids.push_back(msg.bid);
  if (pending.bids.size() >= pending.expected_bids) evaluate(msg.request);
}

void BrokerAgent::evaluate(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.evaluated = true;
  pending.timeout.cancel();

  std::vector<market::Bid> candidates = pending.bids;
  for (auto& b : candidates) {
    if (!b.declined &&
        std::find(pending.refused.begin(), pending.refused.end(), b.id) !=
            pending.refused.end()) {
      b.declined = true;
    }
  }

  const auto evaluator = evaluator_for(pending.criteria);
  const auto choice = evaluator->select(candidates, pending.contract, now());
  if (!choice) {
    fail(id, pending.bids.empty() ? "no bids" : "all bids refused or nonviable");
    return;
  }

  const market::Bid& winner = candidates[*choice];
  pending.promised_completion = winner.promised_completion;
  pending.winner_bid = winner.id;
  pending.winner_daemon = winner.daemon;
  pending.winner_cluster = winner.cluster;
  pending.winner_price = winner.price;
  pending.reservation = ReservationId{};
  pending.phase = AwardPhase::kReserving;
  pending.award_retry.reset();
  auto& spans = context().spans();
  spans.end_span(pending.rfb, now());
  pending.award = spans.start_span(
      obs::SpanKind::kAward, now(), this->id(),
      pending.rfb.valid() ? pending.rfb : pending.root);
  spans.set_value(pending.award, winner.price);
  send_reserve(id);
}

void BrokerAgent::send_reserve(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  auto reserve = std::make_unique<proto::ReserveRequest>();
  reserve->request = id;  // broker-side id: replies correlate back to us
  reserve->bid = pending.winner_bid;
  reserve->username = pending.username;
  reserve->password = pending.password;
  reserve->user = pending.user;
  reserve->contract = pending.contract;
  network_->send(*this, pending.winner_daemon, std::move(reserve));
  const double timeout = pending.award_retry.arm(config_.retry);
  pending.award_retry.set_timer(
      engine().schedule_after(timeout, [this, id] { on_award_timeout(id); }));
}

void BrokerAgent::send_commit(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.phase = AwardPhase::kCommitting;
  auto commit = std::make_unique<proto::CommitRequest>();
  commit->request = id;
  commit->reservation = pending.reservation;
  commit->commit = true;
  commit->notify = pending.client;  // completion notices bypass the broker
  commit->notify_request = pending.client_request;
  commit->span = pending.award;
  network_->send(*this, pending.winner_daemon, std::move(commit));
  const double timeout = pending.award_retry.arm(config_.retry);
  pending.award_retry.set_timer(
      engine().schedule_after(timeout, [this, id] { on_award_timeout(id); }));
}

void BrokerAgent::handle_reserve_reply(const proto::ReserveReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.phase != AwardPhase::kReserving) return;  // stale duplicate
  pending.award_retry.settle();
  if (!msg.accepted) {
    give_up_on_winner(msg.request);
    return;
  }
  pending.reservation = msg.reservation;
  pending.winner_price = msg.price;
  pending.award_retry.reset();
  send_commit(msg.request);
}

void BrokerAgent::on_award_timeout(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  const sim::MessageKind kind = pending.phase == AwardPhase::kReserving
                                    ? sim::MessageKind::kReserve
                                    : sim::MessageKind::kCommit;
  record_timeout(kind, pending.winner_daemon);
  if (pending.award_retry.exhausted(config_.retry)) {
    retry_exhausted_ctr_->inc();
    context().trace().record(obs::market_event(
        now(), this->id(), obs::TraceEventKind::kRetryExhausted, id,
        pending.winner_bid, static_cast<double>(pending.award_retry.attempts())));
    if (pending.phase == AwardPhase::kCommitting && pending.reservation.valid()) {
      // Best-effort abort so an alive daemon frees the lease immediately
      // instead of waiting for it to expire.
      auto abort_msg = std::make_unique<proto::CommitRequest>();
      abort_msg->request = id;
      abort_msg->reservation = pending.reservation;
      abort_msg->commit = false;
      network_->send(*this, pending.winner_daemon, std::move(abort_msg));
    }
    give_up_on_winner(id);
    return;
  }
  record_retry(id, pending.award_retry.attempts());
  if (pending.phase == AwardPhase::kReserving) {
    send_reserve(id);
  } else {
    send_commit(id);
  }
}

void BrokerAgent::give_up_on_winner(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  const EntityId daemon = pending.winner_daemon;
  pending.phase = AwardPhase::kNone;
  pending.reservation = ReservationId{};
  pending.award_retry.settle();
  context().spans().end_span(pending.award, now());
  pending.award = SpanId{};
  for (const auto& b : pending.bids) {
    if (!b.declined && b.daemon == daemon) pending.refused.push_back(b.id);
  }
  evaluate(id);
}

void BrokerAgent::handle_award_ack(const proto::AwardAck& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.phase != AwardPhase::kCommitting) return;  // stale duplicate
  pending.award_retry.settle();

  if (!msg.accepted) {
    give_up_on_winner(msg.request);
    return;
  }

  ++placed_;
  pending.phase = AwardPhase::kNone;
  context().spans().end_span(pending.award, now());
  proto::SubmitJobReply reply;
  reply.request = pending.client_request;
  reply.placed = true;
  reply.daemon = msg.from;
  reply.job = msg.job;
  reply.price = msg.price;
  reply.promised_completion = pending.promised_completion;
  reply.bids_considered = pending.bids.size();
  reply.cluster = pending.winner_cluster;
  reply_to_client(msg.request, std::move(reply));
}

void BrokerAgent::fail(RequestId id, std::string reason) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  ++failed_;
  Pending& pending = it->second;
  pending.dir_retry.settle();
  pending.award_retry.settle();
  pending.timeout.cancel();
  auto& spans = context().spans();
  spans.end_span(pending.rfb, now());
  spans.end_span(pending.award, now());
  proto::SubmitJobReply reply;
  reply.request = pending.client_request;
  reply.placed = false;
  reply.reason = std::move(reason);
  reply_to_client(id, std::move(reply));
}

void BrokerAgent::reply_to_client(RequestId id, proto::SubmitJobReply reply) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const auto key = std::make_pair(it->second.client, it->second.client_request);
  replied_[key] = {it->second.client_attempt, reply};
  network_->send(*this, it->second.client,
                 std::make_unique<proto::SubmitJobReply>(std::move(reply)));
  active_.erase(key);
  pending_.erase(it);
}

}  // namespace faucets

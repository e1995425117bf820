#include "src/faucets/market_round.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/sim/context.hpp"

namespace faucets {

MarketRound::MarketRound(std::string name, sim::SimContext& ctx, EntityId central,
                         RetryPolicy retry)
    : sim::Entity(std::move(name), ctx), central_(central), retry_(retry) {
  ctx.network().attach(*this);
}

void MarketRound::register_retry_counters() {
  auto& reg = context().metrics();
  retry_attempts_ctr_ = &reg.counter("faucets_retry_attempts_total",
                                     "Protocol exchanges re-sent after a timeout");
  retry_timeouts_ctr_ = &reg.counter("faucets_retry_timeouts_total",
                                     "Reply timeouts across all exchanges");
  retry_exhausted_ctr_ = &reg.counter("faucets_retry_exhausted_total",
                                      "Exchanges abandoned after the full "
                                      "backoff schedule");
}

void MarketRound::record_retry(RequestId request, int attempt) {
  retry_attempts_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kRetryAttempt,
                                             request, BidId{},
                                             static_cast<double>(attempt)));
}

void MarketRound::record_timeout(sim::MessageKind kind, EntityId peer) {
  retry_timeouts_ctr_->inc();
  context().trace().record(obs::net_event(now(), id(), peer,
                                          static_cast<std::uint8_t>(kind),
                                          obs::DropReason::kTimeout));
}

bool MarketRound::retry_after_timeout(RetryState& state, sim::MessageKind kind,
                                      EntityId peer, RequestId request, BidId bid) {
  record_timeout(kind, peer);
  if (!state.exhausted(retry_)) {
    record_retry(request, state.attempts());
    return true;
  }
  retry_exhausted_ctr_->inc();
  context().trace().record(obs::market_event(
      now(), id(), obs::TraceEventKind::kRetryExhausted, request, bid,
      static_cast<double>(state.attempts())));
  return false;
}

void MarketRound::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
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

void MarketRound::reset_round(Round& round) {
  round.bids.clear();
  round.expected_bids = 0;
  round.evaluated = false;
  round.awaiting_directory = false;
  round.refused.clear();
  round.bid_timer.cancel();
  round.dir_retry.reset();
  round.award_retry.reset();
  round.phase = AwardPhase::kNone;
  round.reservation = ReservationId{};
  // Close out the previous round's market spans; the next directory reply
  // opens a fresh RFB span under the same root.
  context().spans().end_span(round.rfb, now());
  context().spans().end_span(round.award, now());
  round.rfb = SpanId{};
  round.award = SpanId{};
}

// ------------------------------------------------------------- directory

void MarketRound::request_directory(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  round->awaiting_directory = true;
  auto msg = std::make_unique<proto::DirectoryRequest>();
  msg->request = request;
  msg->session = principal(*round).session;
  msg->contract = round->contract;
  network()->send(*this, central_, std::move(msg));
  const double timeout = round->dir_retry.arm(retry_);
  round->dir_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_directory_timeout(request); }));
}

void MarketRound::on_directory_timeout(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  if (retry_after_timeout(round->dir_retry, sim::MessageKind::kDirectoryRequest,
                          central_, request)) {
    request_directory(request);
  } else {
    on_round_failed(request, proto::SubmitStatus::kTimedOut);
  }
}

void MarketRound::handle_directory(const proto::DirectoryReply& msg) {
  Round* round = find_round(msg.request);
  if (round == nullptr) return;
  // A duplicate reply (ours was slow, we retried, both arrived) must not
  // broadcast a second round of RFBs.
  if (!round->awaiting_directory) return;
  round->awaiting_directory = false;
  round->dir_retry.settle();
  round->regulation = msg.regulation;

  if (msg.servers.empty()) {
    on_round_failed(msg.request, proto::SubmitStatus::kNoServers);
    return;
  }

  // Broadcast the request-for-bids to every matching daemon (§5.1's current
  // implementation).
  round->rfb = context().spans().start_span(obs::SpanKind::kRfb, now(), id(),
                                            round->root);
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kRfbIssued,
                                             msg.request, BidId{},
                                             static_cast<double>(msg.servers.size())));
  round->expected_bids = msg.servers.size();
  const Principal& who = principal(*round);
  // Every daemon reads the same terms: one immutable copy for the broadcast.
  const auto contract = std::make_shared<const qos::QosContract>(round->contract);
  for (const auto& server : msg.servers) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = msg.request;
    rfb->username = who.username;
    rfb->password = who.password;
    rfb->contract = contract;
    network()->send(*this, server.daemon, std::move(rfb));
  }
  round->bid_timer = engine().schedule_after(
      kBidTimeout, [this, request = msg.request] { evaluate(request); });
}

// ------------------------------------------------------- bids and selection

void MarketRound::handle_bid(const proto::BidReply& msg) {
  Round* round = find_round(msg.request);
  if (round == nullptr) return;
  if (round->evaluated) return;  // late bid after timeout evaluation
  round->bids.push_back(msg.bid);
  if (!msg.bid.declined) {
    context().spans().instant_span(obs::SpanKind::kBid, now(), id(), round->rfb,
                                   msg.bid.price);
    on_offer(*round);
  }
  if (round->bids.size() >= round->expected_bids) evaluate(msg.request);
}

void MarketRound::evaluate(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  round->evaluated = true;
  round->bid_timer.cancel();
  round->offered = static_cast<std::size_t>(
      std::count_if(round->bids.begin(), round->bids.end(),
                    [](const market::Bid& b) { return !b.declined; }));

  // Mask out bids of daemons that already refused or went silent, and bids
  // outside the regulated price band (§5.5.1) when regulation is in force.
  std::vector<market::Bid> candidates = round->bids;
  const double work = round->contract.total_work();
  const std::optional<proto::PriceBand>& band = round->regulation;
  for (auto& b : candidates) {
    if (b.declined) continue;
    if (std::find(round->refused.begin(), round->refused.end(), b.id) !=
        round->refused.end()) {
      b.declined = true;
      continue;
    }
    if (band && band->band > 1.0 && band->normal_unit_price > 0.0 && work > 0.0) {
      const double unit = b.price / work;
      if (unit > band->normal_unit_price * band->band ||
          unit < band->normal_unit_price / band->band) {
        b.declined = true;
        ++regulated_out_;
      }
    }
  }

  std::optional<std::size_t> choice;
  if (round->home) {
    // Home-cluster preference (§5.5.3): any viable home bid wins outright.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!candidates[i].declined && candidates[i].cluster == *round->home) {
        const std::vector<market::Bid> only_home{candidates[i]};
        if (round->evaluator->select(only_home, round->contract, now())) choice = i;
        break;
      }
    }
  }
  if (!choice) choice = round->evaluator->select(candidates, round->contract, now());

  if (!choice) {
    on_round_failed(request, round->bids.empty() ? proto::SubmitStatus::kNoBids
                                                 : proto::SubmitStatus::kAllRefused);
    return;
  }

  const market::Bid& winner = candidates[*choice];
  round->promised_completion = winner.promised_completion;
  round->winner_bid = winner.id;
  round->winner_daemon = winner.daemon;
  round->winner_cluster = winner.cluster;
  round->reservation = ReservationId{};
  round->award_retry.reset();
  auto& spans = context().spans();
  spans.end_span(round->rfb, now());
  round->award = spans.start_span(obs::SpanKind::kAward, now(), id(),
                                  round->rfb.valid() ? round->rfb : round->root);
  spans.set_value(round->award, winner.price);
  on_selected(*round, winner);
  send_reserve(request);
}

// ------------------------------------------------------- two-phase award

void MarketRound::send_reserve(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  round->phase = AwardPhase::kReserving;
  auto msg = std::make_unique<proto::ReserveRequest>();
  msg->request = request;
  msg->bid = round->winner_bid;
  msg->user = principal(*round).user;
  network()->send(*this, round->winner_daemon, std::move(msg));
  const double timeout = round->award_retry.arm(retry_);
  round->award_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_award_timeout(request); }));
}

void MarketRound::send_commit(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  round->phase = AwardPhase::kCommitting;
  auto msg = std::make_unique<proto::CommitRequest>();
  msg->request = request;
  msg->reservation = round->reservation;
  msg->commit = true;
  msg->notify = round->notify;
  msg->notify_request = round->notify_request;
  msg->span = round->award;
  network()->send(*this, round->winner_daemon, std::move(msg));
  const double timeout = round->award_retry.arm(retry_);
  round->award_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_award_timeout(request); }));
}

void MarketRound::on_award_timeout(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  const bool reserving = round->phase == AwardPhase::kReserving;
  if (retry_after_timeout(round->award_retry,
                          reserving ? sim::MessageKind::kReserve
                                    : sim::MessageKind::kCommit,
                          round->winner_daemon, request, round->winner_bid)) {
    if (reserving) {
      send_reserve(request);
    } else {
      send_commit(request);
    }
    return;
  }
  if (!reserving && round->reservation.valid()) {
    // Best-effort abort: if the daemon is alive and still holds the lease,
    // release the capacity now rather than waiting for expiry.
    auto abort_msg = std::make_unique<proto::CommitRequest>();
    abort_msg->request = request;
    abort_msg->reservation = round->reservation;
    abort_msg->commit = false;
    network()->send(*this, round->winner_daemon, std::move(abort_msg));
  }
  give_up_on_winner(request);
}

void MarketRound::handle_reserve_reply(const proto::ReserveReply& msg) {
  Round* round = find_round(msg.request);
  if (round == nullptr) return;
  // Duplicate suppression: a late second reply (we retried and both landed)
  // or a stray reply after this round moved on is ignored.
  if (round->phase != AwardPhase::kReserving) return;
  round->award_retry.settle();
  if (!msg.accepted) {
    give_up_on_winner(msg.request);
    return;
  }
  round->reservation = msg.reservation;
  round->award_retry.reset();
  send_commit(msg.request);
}

void MarketRound::handle_award_ack(const proto::AwardAck& msg) {
  Round* round = find_round(msg.request);
  if (round == nullptr) return;
  // Only the commit phase expects an AwardAck; anything else is a
  // duplicate of an ack we already processed.
  if (round->phase != AwardPhase::kCommitting) return;
  round->award_retry.settle();
  if (!msg.accepted) {
    give_up_on_winner(msg.request);
    return;
  }
  round->phase = AwardPhase::kNone;
  // The job keeps its round until it completes; the bids are done with.
  round->bids = std::vector<market::Bid>{};
  round->refused = std::vector<BidId>{};
  on_awarded(msg.request, *round, msg);
}

void MarketRound::give_up_on_winner(RequestId request) {
  Round* round = find_round(request);
  if (round == nullptr) return;
  round->phase = AwardPhase::kNone;
  round->reservation = ReservationId{};
  round->award_retry.settle();
  context().spans().end_span(round->award, now());
  round->award = SpanId{};
  // Mask every bid of the refusing or silent daemon and re-evaluate what is
  // left: the paper's "award to the next-best bid" compensation.
  for (const auto& b : round->bids) {
    if (!b.declined && b.daemon == round->winner_daemon) {
      round->refused.push_back(b.id);
    }
  }
  evaluate(request);
}

}  // namespace faucets

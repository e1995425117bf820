#include "src/faucets/client.hpp"

#include <algorithm>
#include <cmath>

#include "src/sim/context.hpp"
#include "src/util/logging.hpp"

namespace faucets {

FaucetsClient::FaucetsClient(sim::SimContext& ctx, EntityId central,
                             std::unique_ptr<market::BidEvaluator> evaluator,
                             ClientConfig config)
    : sim::Entity("fc-" + config.username, ctx),
      network_(&ctx.network()),
      central_(central),
      evaluator_(std::move(evaluator)),
      config_(std::move(config)) {
  network_->attach(*this);
  auto& reg = ctx.metrics();
  submitted_ctr_ = &reg.counter("faucets_grid_jobs_submitted_total",
                                "Submissions entering the market");
  completed_ctr_ = &reg.counter("faucets_grid_jobs_completed_total",
                                "Jobs whose completion notice reached a client");
  unplaced_ctr_ = &reg.counter("faucets_grid_jobs_unplaced_total",
                               "Submissions no cluster would take");
  migrations_ctr_ = &reg.counter("faucets_grid_migrations_total",
                                 "Jobs moved after an eviction notice");
  watchdog_ctr_ = &reg.counter("faucets_grid_watchdog_restarts_total",
                               "Jobs restarted by the completion watchdog");
  retry_attempts_ctr_ = &reg.counter("faucets_retry_attempts_total",
                                     "Protocol exchanges re-sent after a timeout");
  retry_timeouts_ctr_ = &reg.counter("faucets_retry_timeouts_total",
                                     "Reply timeouts across all exchanges");
  retry_exhausted_ctr_ = &reg.counter("faucets_retry_exhausted_total",
                                      "Exchanges abandoned after the full "
                                      "backoff schedule");
  bid_latency_hist_ = &reg.histogram("faucets_bid_latency_seconds",
                                     obs::exponential_buckets(0.001, 2.0, 16),
                                     "Submission to each bid's arrival");
  award_latency_hist_ = &reg.histogram("faucets_award_latency_seconds",
                                       obs::exponential_buckets(0.001, 2.0, 16),
                                       "Submission to confirmed award");
  inflight_gauge_ = &reg.gauge("faucets_market_inflight_requests",
                               "Submissions between submit and a terminal "
                               "outcome, grid-wide");
  // Time-series registration is idempotent by name: every client asks, one
  // buffer exists. Inert unless GridSystem arms periodic sampling.
  auto& sampler = ctx.sampler();
  sampler.add_gauge_series("faucets_market_inflight_requests", *inflight_gauge_,
                           "requests");
  sampler.add_counter_series("faucets_retry_attempts_total",
                             *retry_attempts_ctr_, "retries");
}

void FaucetsClient::record_retry(RequestId request, sim::MessageKind kind,
                                 EntityId peer, int attempt) {
  (void)kind;
  (void)peer;
  retry_attempts_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kRetryAttempt,
                                             request, BidId{},
                                             static_cast<double>(attempt)));
}

void FaucetsClient::record_timeout(sim::MessageKind kind, EntityId peer) {
  retry_timeouts_ctr_->inc();
  context().trace().record(obs::net_event(now(), id(), peer,
                                          static_cast<std::uint8_t>(kind),
                                          obs::DropReason::kTimeout));
}

void FaucetsClient::login() {
  if (login_sent_) return;
  login_sent_ = true;
  login_retry_.reset();
  send_login();
}

void FaucetsClient::send_login() {
  auto msg = std::make_unique<proto::LoginRequest>();
  msg->username = config_.username;
  msg->password = config_.password;
  network_->send(*this, central_, std::move(msg));
  const double timeout = login_retry_.arm(config_.retry);
  login_retry_.set_timer(engine().schedule_after(timeout, [this] {
    if (session_) return;
    record_timeout(sim::MessageKind::kLogin, central_);
    if (!login_retry_.exhausted(config_.retry)) {
      record_retry(RequestId{}, sim::MessageKind::kLogin, central_,
                   login_retry_.attempts());
      send_login();
      return;
    }
    retry_exhausted_ctr_->inc();
    context().trace().record(obs::market_event(
        now(), id(), obs::TraceEventKind::kRetryExhausted, RequestId{}, BidId{},
        static_cast<double>(login_retry_.attempts())));
    FAUCETS_WARN("fc") << config_.username
                       << ": login retries exhausted, failing queued jobs";
    login_failed_ = true;
    while (!pre_login_queue_.empty()) {
      auto contract = std::move(pre_login_queue_.front());
      pre_login_queue_.pop_front();
      fail_unsubmitted(contract);
    }
  }));
}

void FaucetsClient::fail_unsubmitted(const qos::QosContract& contract) {
  (void)contract;
  submitted_ctr_->inc();
  auto& spans = context().spans();
  SubmissionOutcome outcome;
  outcome.submit_time = now();
  outcome.status = SubmissionOutcome::Status::kTimedOut;
  outcome.has_deadline = contract.payoff.has_deadline();
  outcome.soft_deadline = contract.payoff.soft_deadline();
  outcome.hard_deadline = contract.payoff.hard_deadline();
  outcome.payoff_max = contract.payoff.max_payoff();
  outcome.span = spans.start_span(obs::SpanKind::kSubmission, now(), id());
  spans.instant_span(obs::SpanKind::kUnplaced, now(), id(), outcome.span);
  spans.end_span(outcome.span, now());
  ++unplaced_;
  unplaced_ctr_->inc();
  outcomes_.push_back(outcome);
}

void FaucetsClient::run_source(job::WorkloadSource& source) {
  source_ = &source;
  login();
  arm_next_submission();
}

void FaucetsClient::run_workload(std::vector<job::JobRequest> requests) {
  owned_source_ = std::make_unique<job::VectorSource>(std::move(requests));
  run_source(*owned_source_);
}

void FaucetsClient::arm_next_submission() {
  const double t = source_->peek_next_submit_time();
  if (std::isinf(t)) return;  // drained; workload_drained() flips true
  // One timer in flight at a time: each firing pulls exactly one request
  // and re-arms, so a streaming source is drained at the pace of the
  // simulation clock instead of being preloaded into the event queue.
  engine().schedule_at(std::max(t, now()), [this] { on_submission_due(); });
}

void FaucetsClient::on_submission_due() {
  job::JobRequest req = source_->next();
  // Re-arm before submitting, so the next submission timer is queued ahead
  // of everything submit() schedules at this instant.
  arm_next_submission();
  submit(req.contract);
}

void FaucetsClient::submit_now(const qos::QosContract& contract) {
  login();
  submit(contract);
}

void FaucetsClient::submit(const qos::QosContract& contract) {
  if (!session_) {
    if (login_failed_) {
      fail_unsubmitted(contract);
      return;
    }
    login();
    pre_login_queue_.push_back(contract);
    return;
  }
  const RequestId request = request_ids_.next();
  PendingJob pending;
  pending.outcome_index = outcomes_.size();
  pending.contract = contract;
  pending.root = context().spans().start_span(obs::SpanKind::kSubmission, now(), id());
  context().spans().set_user(pending.root, user_);
  submitted_ctr_->inc();

  SubmissionOutcome outcome;
  outcome.submit_time = now();
  outcome.span = pending.root;
  outcome.has_deadline = contract.payoff.has_deadline();
  outcome.soft_deadline = contract.payoff.soft_deadline();
  outcome.hard_deadline = contract.payoff.hard_deadline();
  outcome.payoff_max = contract.payoff.max_payoff();
  outcomes_.push_back(outcome);
  pending_.emplace(request, std::move(pending));
  inflight_gauge_->add(1.0);

  if (config_.broker.has_value()) {
    send_brokered(request);
    return;
  }
  send_directory_request(request);
}

void FaucetsClient::send_directory_request(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.awaiting_directory = true;
  auto msg = std::make_unique<proto::DirectoryRequest>();
  msg->request = request;
  msg->session = *session_;
  msg->contract = pending.contract;
  network_->send(*this, central_, std::move(msg));
  const double timeout = pending.dir_retry.arm(config_.retry);
  pending.dir_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_directory_timeout(request); }));
}

void FaucetsClient::on_directory_timeout(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  const sim::MessageKind kind = config_.broker ? sim::MessageKind::kSubmit
                                               : sim::MessageKind::kDirectoryRequest;
  const EntityId peer = config_.broker ? *config_.broker : central_;
  record_timeout(kind, peer);
  if (pending.dir_retry.exhausted(config_.retry)) {
    retry_exhausted_ctr_->inc();
    context().trace().record(obs::market_event(
        now(), id(), obs::TraceEventKind::kRetryExhausted, request, BidId{},
        static_cast<double>(pending.dir_retry.attempts())));
    finish_request(request, SubmissionOutcome::Status::kTimedOut);
    return;
  }
  record_retry(request, kind, peer, pending.dir_retry.attempts());
  if (config_.broker) {
    send_brokered(request);
  } else {
    send_directory_request(request);
  }
}

void FaucetsClient::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kLoginAck:
      handle_login(sim::message_cast<proto::LoginReply>(msg));
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
    case sim::MessageKind::kJobDone:
      handle_complete(sim::message_cast<proto::JobCompleteNotice>(msg));
      break;
    case sim::MessageKind::kEvicted:
      handle_evicted(sim::message_cast<proto::JobEvicted>(msg));
      break;
    case sim::MessageKind::kSubmitAck:
      handle_submit_reply(sim::message_cast<proto::SubmitJobReply>(msg));
      break;
    default:
      break;
  }
}

void FaucetsClient::resubmit(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.bids.clear();
  pending.expected_bids = 0;
  pending.evaluated = false;
  pending.awaiting_directory = false;
  pending.refused.clear();
  pending.timeout.cancel();
  pending.watchdog.cancel();
  pending.dir_retry.reset();
  pending.award_retry.reset();
  pending.phase = AwardPhase::kNone;
  pending.reservation = ReservationId{};
  ++pending.submit_attempt;
  // Close out the previous round's market spans; the next directory reply
  // opens a fresh RFB span under the same submission root.
  context().spans().end_span(pending.rfb, now());
  context().spans().end_span(pending.award, now());
  pending.rfb = SpanId{};
  pending.award = SpanId{};
  outcomes_[pending.outcome_index].status = SubmissionOutcome::Status::kPending;

  if (config_.broker.has_value()) {
    send_brokered(request);
    return;
  }
  send_directory_request(request);
}

void FaucetsClient::handle_evicted(const proto::JobEvicted& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // Resume from the checkpoint: only the remaining work goes back to the
  // market. Deadlines stay absolute — lost time is lost.
  pending.contract = pending.contract.reduced_by(msg.completed_work);
  ++migrations_;
  migrations_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobMigrated,
                                             msg.request, BidId{}, 0.0));
  FAUCETS_INFO("fc") << config_.username << ": job evicted, resubmitting "
                     << pending.contract.total_work() << " remaining work";
  resubmit(msg.request);
}

void FaucetsClient::handle_login(const proto::LoginReply& msg) {
  login_retry_.settle();
  if (!msg.ok) {
    FAUCETS_WARN("fc") << config_.username << ": login denied";
    return;
  }
  session_ = msg.session;
  user_ = msg.user;
  while (!pre_login_queue_.empty()) {
    auto contract = std::move(pre_login_queue_.front());
    pre_login_queue_.pop_front();
    submit(contract);
  }
}

void FaucetsClient::handle_directory(const proto::DirectoryReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // A duplicate reply (ours was slow, we retried, both arrived) must not
  // broadcast a second round of RFBs.
  if (!pending.awaiting_directory) return;
  pending.awaiting_directory = false;
  pending.dir_retry.settle();
  pending.regulation = msg.regulation;

  if (msg.servers.empty()) {
    finish_request(msg.request, SubmissionOutcome::Status::kNoServers);
    return;
  }

  // Broadcast the request-for-bids to every matching daemon (§5.1's current
  // implementation).
  pending.rfb = context().spans().start_span(obs::SpanKind::kRfb, now(), id(),
                                             pending.root);
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kRfbIssued,
                                             msg.request, BidId{},
                                             static_cast<double>(msg.servers.size())));
  pending.expected_bids = msg.servers.size();
  for (const auto& server : msg.servers) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = msg.request;
    rfb->username = config_.username;
    rfb->password = config_.password;
    rfb->contract = pending.contract;
    network_->send(*this, server.daemon, std::move(rfb));
  }
  pending.timeout = engine().schedule_after(
      config_.bid_timeout, [this, request = msg.request] { evaluate(request); });
}

void FaucetsClient::handle_bid(const proto::BidReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  if (pending.evaluated) return;  // late bid after timeout evaluation
  pending.bids.push_back(msg.bid);
  if (!msg.bid.declined) {
    context().spans().instant_span(obs::SpanKind::kBid, now(), id(), pending.rfb,
                                   msg.bid.price);
    bid_latency_hist_->observe(now() -
                               outcomes_[pending.outcome_index].submit_time);
  }
  if (pending.bids.size() >= pending.expected_bids) evaluate(msg.request);
}

void FaucetsClient::evaluate(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.evaluated = true;
  pending.timeout.cancel();
  outcomes_[pending.outcome_index].bids_received =
      static_cast<std::size_t>(std::count_if(
          pending.bids.begin(), pending.bids.end(),
          [](const market::Bid& b) { return !b.declined; }));

  // Mask out bids already refused at commit time, and bids outside the
  // regulated price band (§5.5.1) when regulation is in force.
  std::vector<market::Bid> candidates = pending.bids;
  const double work = pending.contract.total_work();
  for (auto& b : candidates) {
    if (b.declined) continue;
    if (std::find(pending.refused.begin(), pending.refused.end(), b.id) !=
        pending.refused.end()) {
      b.declined = true;
      continue;
    }
    if (pending.regulation && pending.regulation->band > 1.0 &&
        pending.regulation->normal_unit_price > 0.0 && work > 0.0) {
      const double unit = b.price / work;
      const double normal = pending.regulation->normal_unit_price;
      const double band = pending.regulation->band;
      if (unit > normal * band || unit < normal / band) {
        b.declined = true;
        ++regulated_out_;
      }
    }
  }

  std::optional<std::size_t> choice;
  if (config_.home_cluster) {
    // Home-cluster preference (§5.5.3): any viable home bid wins outright.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!candidates[i].declined && candidates[i].cluster == *config_.home_cluster) {
        std::vector<market::Bid> only_home{candidates[i]};
        if (evaluator_->select(only_home, pending.contract, now())) choice = i;
        break;
      }
    }
  }
  if (!choice) choice = evaluator_->select(candidates, pending.contract, now());

  if (!choice) {
    finish_request(request, pending.bids.empty()
                                ? SubmissionOutcome::Status::kNoBids
                                : SubmissionOutcome::Status::kAllRefused);
    return;
  }

  const market::Bid& winner = candidates[*choice];
  pending.promised_completion = winner.promised_completion;
  pending.winner_bid = winner.id;
  pending.winner_daemon = winner.daemon;
  pending.winner_price = winner.price;
  pending.reservation = ReservationId{};
  pending.award_retry.reset();
  auto& spans = context().spans();
  spans.end_span(pending.rfb, now());
  pending.award = spans.start_span(
      obs::SpanKind::kAward, now(), id(),
      pending.rfb.valid() ? pending.rfb : pending.root);
  spans.set_value(pending.award, winner.price);
  outcomes_[pending.outcome_index].cluster = winner.cluster;
  outcomes_[pending.outcome_index].price = winner.price;
  send_reserve(request);
}

void FaucetsClient::send_reserve(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.phase = AwardPhase::kReserving;
  auto msg = std::make_unique<proto::ReserveRequest>();
  msg->request = request;
  msg->bid = pending.winner_bid;
  msg->username = config_.username;
  msg->password = config_.password;
  msg->user = user_;
  msg->contract = pending.contract;
  network_->send(*this, pending.winner_daemon, std::move(msg));
  const double timeout = pending.award_retry.arm(config_.retry);
  pending.award_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_award_timeout(request); }));
}

void FaucetsClient::send_commit(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.phase = AwardPhase::kCommitting;
  auto msg = std::make_unique<proto::CommitRequest>();
  msg->request = request;
  msg->reservation = pending.reservation;
  msg->commit = true;
  msg->span = pending.award;
  network_->send(*this, pending.winner_daemon, std::move(msg));
  const double timeout = pending.award_retry.arm(config_.retry);
  pending.award_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_award_timeout(request); }));
}

void FaucetsClient::on_award_timeout(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  const sim::MessageKind kind = pending.phase == AwardPhase::kReserving
                                    ? sim::MessageKind::kReserve
                                    : sim::MessageKind::kCommit;
  record_timeout(kind, pending.winner_daemon);
  if (pending.award_retry.exhausted(config_.retry)) {
    retry_exhausted_ctr_->inc();
    context().trace().record(obs::market_event(
        now(), id(), obs::TraceEventKind::kRetryExhausted, request,
        pending.winner_bid, static_cast<double>(pending.award_retry.attempts())));
    if (pending.phase == AwardPhase::kCommitting && pending.reservation.valid()) {
      // Best-effort abort: if the daemon is alive and still holds the
      // lease, release the capacity now rather than waiting for expiry.
      auto abort_msg = std::make_unique<proto::CommitRequest>();
      abort_msg->request = request;
      abort_msg->reservation = pending.reservation;
      abort_msg->commit = false;
      network_->send(*this, pending.winner_daemon, std::move(abort_msg));
    }
    give_up_on_winner(request);
    return;
  }
  record_retry(request, kind, pending.winner_daemon, pending.award_retry.attempts());
  if (pending.phase == AwardPhase::kReserving) {
    send_reserve(request);
  } else {
    send_commit(request);
  }
}

void FaucetsClient::give_up_on_winner(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.phase = AwardPhase::kNone;
  pending.reservation = ReservationId{};
  pending.award_retry.settle();
  // Mark every bid from the dead/refusing cluster and re-evaluate what is
  // left — the paper's "award to the next-best bid" compensation.
  context().spans().end_span(pending.award, now());
  pending.award = SpanId{};
  const ClusterId dead = outcomes_[pending.outcome_index].cluster;
  for (const auto& b : pending.bids) {
    if (!b.declined && b.cluster == dead) pending.refused.push_back(b.id);
  }
  evaluate(request);
}

void FaucetsClient::handle_reserve_reply(const proto::ReserveReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // Duplicate suppression: a late second reply (we retried and both landed)
  // or a stray reply after this round moved on is ignored.
  if (pending.phase != AwardPhase::kReserving) return;
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

void FaucetsClient::handle_award_ack(const proto::AwardAck& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // Only the commit phase expects an AwardAck; anything else is a
  // duplicate of an ack we already processed.
  if (pending.phase != AwardPhase::kCommitting) return;
  pending.award_retry.settle();

  if (!msg.accepted) {
    give_up_on_winner(msg.request);
    return;
  }

  pending.phase = AwardPhase::kNone;
  on_placed(msg.request, msg.price, outcomes_[pending.outcome_index].cluster,
            msg.from, msg.job, pending.promised_completion);
}

void FaucetsClient::arm_watchdog(RequestId request, double promised_completion) {
  if (!config_.watchdog_margin) return;
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  // Promises are estimates, not contracts: allow twice the promised
  // runtime before declaring the job lost, plus the fixed margin.
  const double promised_run = std::max(promised_completion - now(), 0.0);
  const double deadline = now() + 2.0 * promised_run + *config_.watchdog_margin;
  it->second.watchdog = engine().schedule_at(deadline, [this, request] {
    auto wit = pending_.find(request);
    if (wit == pending_.end()) return;
    if (outcomes_[wit->second.outcome_index].status !=
        SubmissionOutcome::Status::kPlaced) {
      return;
    }
    ++watchdog_restarts_;
    watchdog_ctr_->inc();
    context().trace().record(
        obs::market_event(now(), id(), obs::TraceEventKind::kWatchdogRestart,
                          request, BidId{}, 0.0));
    FAUCETS_WARN("fc") << config_.username
                       << ": watchdog fired, restarting lost job";
    resubmit(request);
  });
}

void FaucetsClient::on_placed(RequestId request, double price, ClusterId cluster,
                              EntityId daemon, JobId job,
                              double promised_completion) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;

  SubmissionOutcome& outcome = outcomes_[pending.outcome_index];
  outcome.status = SubmissionOutcome::Status::kPlaced;
  outcome.award_time = now();
  outcome.price = price;
  outcome.cluster = cluster;
  outcome.job = job;
  award_latency_.add(outcome.award_time - outcome.submit_time);
  award_latency_hist_->observe(outcome.award_time - outcome.submit_time);
  context().spans().end_span(pending.award, now());
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobPlaced,
                                             request, BidId{}, price));

  arm_watchdog(request, promised_completion);

  // Upload input files to the chosen daemon.
  auto upload = std::make_unique<proto::UploadFiles>();
  upload->request = request;
  upload->job = job;
  upload->megabytes = pending.contract.resources.input_mb > 0.0
                          ? pending.contract.resources.input_mb
                          : config_.default_input_mb;
  network_->send(*this, daemon, std::move(upload));
}

void FaucetsClient::send_brokered(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  auto msg = std::make_unique<proto::SubmitJobRequest>();
  msg->request = request;
  msg->attempt = pending.submit_attempt;
  msg->session = *session_;
  msg->username = config_.username;
  msg->password = config_.password;
  msg->user = user_;
  msg->criteria = config_.criteria;
  msg->contract = pending.contract;
  msg->span = pending.root;
  network_->send(*this, *config_.broker, std::move(msg));
  // The broker runs a whole directory + bidding + award cycle before it can
  // answer, so each attempt waits the full market budget, not one RTT. The
  // broker deduplicates resubmissions by (client, request).
  (void)pending.dir_retry.arm(config_.retry);
  const double timeout = config_.bid_timeout + config_.retry.total_budget();
  pending.dir_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_directory_timeout(request); }));
}

void FaucetsClient::handle_submit_reply(const proto::SubmitJobReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  it->second.dir_retry.settle();
  if (!msg.placed) {
    finish_request(msg.request, msg.reason == "no matching servers"
                                    ? SubmissionOutcome::Status::kNoServers
                                    : SubmissionOutcome::Status::kNoBids);
    return;
  }
  if (outcomes_[it->second.outcome_index].status ==
      SubmissionOutcome::Status::kPlaced) {
    return;  // duplicate reply after a broker-side resend
  }
  outcomes_[it->second.outcome_index].bids_received = msg.bids_considered;
  on_placed(msg.request, msg.price, msg.cluster, msg.daemon, msg.job,
            msg.promised_completion);
}

void FaucetsClient::handle_complete(const proto::JobCompleteNotice& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.watchdog.cancel();
  pending.dir_retry.settle();
  pending.award_retry.settle();
  SubmissionOutcome& outcome = outcomes_[pending.outcome_index];
  outcome.status = SubmissionOutcome::Status::kCompleted;
  outcome.finish_time = msg.finish_time;
  outcome.payoff = pending.contract.payoff.value_at(msg.finish_time);
  total_spent_ += msg.price_charged;
  total_payoff_ += outcome.payoff;
  ++completed_;
  completed_ctr_->inc();
  context().spans().end_span(pending.root, now());
  pending_.erase(it);
  inflight_gauge_->add(-1.0);
}

void FaucetsClient::finish_request(RequestId request,
                                   SubmissionOutcome::Status status) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;

  // Under chaos, "no bids" often really means "partitioned": run another
  // RFB round after a backoff instead of giving up, so a healed partition
  // or restarted daemon gets a fresh chance (re-bid).
  if (pending.round + 1 < config_.bid_rounds &&
      status != SubmissionOutcome::Status::kCompleted) {
    ++pending.round;
    const double delay = config_.retry.timeout_for(pending.round);
    record_retry(request, sim::MessageKind::kRequestForBids, central_,
                 pending.round);
    engine().schedule_after(delay, [this, request] { resubmit(request); });
    return;
  }

  pending.timeout.cancel();
  pending.watchdog.cancel();
  pending.dir_retry.settle();
  pending.award_retry.settle();
  outcomes_[pending.outcome_index].status = status;
  ++unplaced_;
  unplaced_ctr_->inc();
  auto& spans = context().spans();
  spans.end_span(pending.rfb, now());
  spans.end_span(pending.award, now());
  spans.instant_span(obs::SpanKind::kUnplaced, now(), id(), pending.root);
  spans.end_span(pending.root, now());
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobUnplaced,
                                             request, BidId{}, 0.0));
  pending_.erase(it);
  inflight_gauge_->add(-1.0);
}

}  // namespace faucets

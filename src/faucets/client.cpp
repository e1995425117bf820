#include "src/faucets/client.hpp"

#include <algorithm>
#include <cmath>

#include "src/sim/context.hpp"

namespace faucets {

namespace {
/// Input upload size of a contract that names none.
constexpr double kDefaultInputMb = 8.0;
}  // namespace

FaucetsClient::FaucetsClient(sim::SimContext& ctx, EntityId central,
                             std::shared_ptr<const market::BidEvaluator> evaluator,
                             ClientConfig config)
    : MarketRound("fc-" + config.username, ctx, central, config.retry),
      evaluator_(std::move(evaluator)),
      config_(std::move(config)) {
  me_.username = config_.username;
  me_.password = config_.password;
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
  register_retry_counters();
  bid_latency_hist_ = &reg.histogram("faucets_bid_latency_seconds",
                                     obs::exponential_buckets(0.001, 2.0, 16),
                                     "Submission to each bid's arrival");
  award_latency_hist_ = &reg.histogram("faucets_award_latency_seconds",
                                       obs::exponential_buckets(0.001, 2.0, 16),
                                       "Submission to confirmed award");
  inflight_gauge_ = &reg.gauge("faucets_market_inflight_requests",
                               "Submissions between submit and a terminal "
                               "outcome, grid-wide");
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
  network().send(*this, central_, std::move(msg));
  const double timeout = login_retry_.arm(retry_);
  login_retry_.set_timer(engine().schedule_after(timeout, [this] {
    if (logged_in()) return;
    if (retry_after_timeout(login_retry_, sim::MessageKind::kLogin, central_,
                            RequestId{})) {
      send_login();
      return;
    }
    login_failed_ = true;
    while (!pre_login_queue_.empty()) {
      auto contract = std::move(pre_login_queue_.front());
      pre_login_queue_.pop_front();
      fail_unsubmitted(contract);
    }
  }));
}

void FaucetsClient::fail_unsubmitted(const qos::QosContract& contract) {
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
  unplaced_ctr_->inc();
  outcomes_.push_back(outcome);
}

void FaucetsClient::run_source(job::WorkloadSource& source) {
  source_ = &source;
  login();
  arm_next_submission();
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

void FaucetsClient::submit(const qos::QosContract& contract) {
  if (!logged_in()) {
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
  pending.evaluator = evaluator_;
  pending.home = config_.home_cluster;
  pending.root = context().spans().start_span(obs::SpanKind::kSubmission, now(), id());
  context().spans().set_user(pending.root, me_.user);
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
  request_directory(request);
}

void FaucetsClient::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kLoginAck:
      handle_login(sim::message_cast<proto::LoginReply>(msg));
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
      MarketRound::on_message(msg);
      break;
  }
}

MarketRound::Round* FaucetsClient::find_round(RequestId request) {
  auto it = pending_.find(request);
  return it == pending_.end() ? nullptr : &it->second;
}

const MarketRound::Principal& FaucetsClient::principal(const Round& /*round*/) const {
  return me_;
}

void FaucetsClient::on_offer(const Round& round) {
  const auto& pending = static_cast<const PendingJob&>(round);
  bid_latency_hist_->observe(now() - outcomes_[pending.outcome_index].submit_time);
}

void FaucetsClient::on_selected(const Round& round, const market::Bid& winner) {
  // Written at selection, not placement: the telemetry join attributes an
  // unplaced job's deadline row to the cluster it last tried.
  SubmissionOutcome& outcome =
      outcomes_[static_cast<const PendingJob&>(round).outcome_index];
  outcome.cluster = winner.cluster;
  outcome.price = winner.price;
}

void FaucetsClient::on_awarded(RequestId request, Round& round,
                               const proto::AwardAck& ack) {
  on_placed(request, ack.price, round.winner_cluster, ack.from, ack.job,
            round.promised_completion);
}

void FaucetsClient::on_round_failed(RequestId request, proto::SubmitStatus status) {
  finish_request(request, status);
}

void FaucetsClient::resubmit(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  reset_round(pending);
  pending.watchdog.cancel();
  ++pending.submit_attempt;
  outcomes_[pending.outcome_index].status = SubmissionOutcome::Status::kPending;

  if (config_.broker.has_value()) {
    send_brokered(request);
    return;
  }
  request_directory(request);
}

void FaucetsClient::handle_evicted(const proto::JobEvicted& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // Resume from the checkpoint: only the remaining work goes back to the
  // market. Deadlines stay absolute — lost time is lost.
  pending.contract = pending.contract.reduced_by(msg.completed_work);
  migrations_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobMigrated,
                                             msg.request, BidId{}, 0.0));
  resubmit(msg.request);
}

void FaucetsClient::handle_login(const proto::LoginReply& msg) {
  login_retry_.settle();
  if (!msg.ok) return;
  me_.session = msg.session;
  me_.user = msg.user;
  while (!pre_login_queue_.empty()) {
    auto contract = std::move(pre_login_queue_.front());
    pre_login_queue_.pop_front();
    submit(contract);
  }
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
    watchdog_ctr_->inc();
    context().trace().record(
        obs::market_event(now(), id(), obs::TraceEventKind::kWatchdogRestart,
                          request, BidId{}, 0.0));
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
  outcome.bids_received = pending.offered;
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
                          : kDefaultInputMb;
  network().send(*this, daemon, std::move(upload));
}

void FaucetsClient::send_brokered(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  auto msg = std::make_unique<proto::SubmitJobRequest>();
  msg->request = request;
  msg->attempt = pending.submit_attempt;
  msg->session = me_.session;
  msg->username = me_.username;
  msg->password = me_.password;
  msg->user = me_.user;
  msg->evaluator = evaluator_;
  msg->home = config_.home_cluster;
  msg->contract = pending.contract;
  msg->span = pending.root;
  network().send(*this, *config_.broker, std::move(msg));
  // The broker runs a whole directory + bidding + award cycle before it can
  // answer, so each attempt waits the full market budget, not one RTT. The
  // broker deduplicates resubmissions by (client, request).
  (void)pending.dir_retry.arm(retry_);
  const double timeout = kBidTimeout + retry_.total_budget();
  pending.dir_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_brokered_timeout(request); }));
}

void FaucetsClient::on_brokered_timeout(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  if (retry_after_timeout(it->second.dir_retry, sim::MessageKind::kSubmit,
                          *config_.broker, request)) {
    send_brokered(request);
  } else {
    finish_request(request, SubmissionOutcome::Status::kTimedOut);
  }
}

void FaucetsClient::handle_submit_reply(const proto::SubmitJobReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.dir_retry.settle();
  pending.offered = msg.bids_offered;
  if (msg.status != SubmissionOutcome::Status::kPlaced) {
    finish_request(msg.request, msg.status);
    return;
  }
  if (outcomes_[pending.outcome_index].status == SubmissionOutcome::Status::kPlaced) {
    return;  // duplicate reply after a broker-side resend
  }
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
  if (pending.rounds + 1 < config_.bid_rounds &&
      status != SubmissionOutcome::Status::kCompleted) {
    ++pending.rounds;
    const double delay = retry_.timeout_for(pending.rounds);
    record_retry(request, pending.rounds);
    engine().schedule_after(delay, [this, request] { resubmit(request); });
    return;
  }

  pending.bid_timer.cancel();
  pending.watchdog.cancel();
  pending.dir_retry.settle();
  pending.award_retry.settle();
  SubmissionOutcome& outcome = outcomes_[pending.outcome_index];
  outcome.status = status;
  outcome.bids_received = pending.offered;
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

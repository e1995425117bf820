#include "src/faucets/daemon.hpp"

#include <algorithm>

#include "src/sim/context.hpp"
#include "src/util/logging.hpp"

namespace faucets {

FaucetsDaemon::FaucetsDaemon(sim::SimContext& ctx, ClusterId cluster,
                             std::unique_ptr<cluster::ClusterManager> cm,
                             std::unique_ptr<market::BidGenerator> bidgen,
                             EntityId central_server, EntityId appspector,
                             DaemonConfig config, RetryPolicy retry)
    : sim::Entity("fd-" + cm->machine().name, ctx),
      cluster_(cluster),
      cm_(std::move(cm)),
      bidgen_(std::move(bidgen)),
      central_(central_server),
      appspector_(appspector),
      config_(config),
      retry_(retry) {
  network().attach(*this);
  auto& reg = ctx.metrics();
  bids_issued_ctr_ = &reg.counter("faucets_market_bids_issued_total",
                                  "Bids offered across all daemons");
  bids_declined_ctr_ = &reg.counter("faucets_market_bids_declined_total",
                                    "RFBs answered with a decline");
  awards_confirmed_ctr_ = &reg.counter("faucets_market_awards_confirmed_total",
                                       "Awards the two-phase commit confirmed");
  awards_refused_ctr_ = &reg.counter("faucets_market_awards_refused_total",
                                     "Awards refused (stale bid or state change)");
  revenue_gauge_ = &reg.gauge("faucets_market_revenue_total",
                              "Revenue collected from settled contracts");
  // Namespace bid ids by cluster so they are unique grid-wide.
  bid_ids_.reset(cluster_.value() << 32);
  wire_cm_callbacks();
  if (config_.monitor_interval > 0.0) {
    monitor_timer_ = this->engine().schedule_after(config_.monitor_interval,
                                                   [this] { push_monitor_updates(); });
  }
}

void FaucetsDaemon::wire_cm_callbacks() {
  cm_->set_completion_callback([this](const job::Job& j) { on_job_complete(j); });
  cm_->set_lease_expired_callback([this](ReservationId r) { on_lease_expired(r); });
}

void FaucetsDaemon::register_with_central() {
  register_retry_.reset();
  send_registration();
}

void FaucetsDaemon::send_registration() {
  auto msg = std::make_unique<proto::RegisterDaemon>();
  msg->cluster = cluster_;
  msg->machine = cm_->machine();
  network().send(*this, central_, std::move(msg));
  // Registration must survive a lossy WAN: retry with backoff until the
  // Central Server acknowledges, otherwise this cluster never appears in
  // any directory.
  const double timeout = register_retry_.arm(retry_);
  register_retry_.set_timer(engine().schedule_after(timeout, [this] {
    if (register_retry_.exhausted(retry_)) {
      context().trace().record(obs::market_event(
          now(), id(), obs::TraceEventKind::kRetryExhausted, RequestId{}, BidId{},
          static_cast<double>(register_retry_.attempts())));
      return;
    }
    context().trace().record(obs::market_event(
        now(), id(), obs::TraceEventKind::kRetryAttempt, RequestId{}, BidId{},
        static_cast<double>(register_retry_.attempts())));
    send_registration();
  }));
}

void FaucetsDaemon::drain_and_shutdown() {
  const auto evicted = cm_->evict_all();
  for (const auto& e : evicted) {
    auto it = running_.find(e.job);
    if (it == running_.end()) continue;  // locally submitted job, no client
    auto notice = std::make_unique<proto::JobEvicted>();
    notice->job = e.job;
    notice->request = it->second.request;
    notice->completed_work = e.completed_work;
    notice->checkpoint_mb = e.contract.resources.total_memory_for(e.contract.min_procs) /
                            1024.0;  // rough checkpoint image size
    network().send(*this, it->second.client, std::move(notice));
    running_.erase(it);
  }
  cm_->release_all_reservations();
  reservations_.clear();
  reserved_bids_.clear();
  committed_.clear();
  register_retry_.reset();
  monitor_timer_.cancel();
  network().detach(id());
}

void FaucetsDaemon::crash() {
  cm_->halt();  // also releases every reservation lease
  running_.clear();
  issued_bids_.clear();
  reservations_.clear();
  reserved_bids_.clear();
  committed_.clear();
  pending_auth_.clear();
  register_retry_.reset();
  monitor_timer_.cancel();
  network().detach(id());
}

void FaucetsDaemon::restart() {
  network().reattach(*this);
  // halt() cleared the CM callbacks; a restarted daemon must hear about
  // completions and expiring leases again.
  wire_cm_callbacks();
  register_with_central();
  if (config_.monitor_interval > 0.0) {
    monitor_timer_ = engine().schedule_after(config_.monitor_interval,
                                             [this] { push_monitor_updates(); });
  }
}

void FaucetsDaemon::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kRequestForBids:
      handle_rfb(sim::message_cast<proto::RequestForBids>(msg));
      break;
    case sim::MessageKind::kAuthReply:
      handle_auth_reply(sim::message_cast<proto::AuthVerifyReply>(msg));
      break;
    case sim::MessageKind::kReserve:
      handle_reserve(sim::message_cast<proto::ReserveRequest>(msg));
      break;
    case sim::MessageKind::kCommit:
      handle_commit(sim::message_cast<proto::CommitRequest>(msg));
      break;
    case sim::MessageKind::kUpload:
      handle_upload(sim::message_cast<proto::UploadFiles>(msg));
      break;
    case sim::MessageKind::kPoll:
      handle_poll(sim::message_cast<proto::PollRequest>(msg));
      break;
    case sim::MessageKind::kRegisterAck:
      register_retry_.settle();
      break;
    default:
      break;
  }
}

void FaucetsDaemon::handle_rfb(const proto::RequestForBids& msg) {
  // A check whose AUTH_REQ or AUTH_ACK was lost would wait forever; any
  // reply older than a bid's validity is no longer awaited.
  pending_auth_.forget_front([this](const PendingRfb& p) {
    return p.asked_at + config_.bid_validity < now();
  });
  PendingRfb rfb{msg.from, msg.request, msg.contract, now(), {}};
  // §2.2: the FD holds no account data; verify with the Central Server —
  // unless a cached verification exists (the single-sign-on optimization).
  if (config_.cache_auth && auth_cache_.contains(msg.username)) {
    answer_rfb(rfb);
    return;
  }
  // Remember the username so a success can populate the cache.
  if (config_.cache_auth) rfb.username = msg.username;
  const RequestId auth_id = auth_request_ids_.next();
  pending_auth_.push(auth_id, std::move(rfb));
  auto verify = std::make_unique<proto::AuthVerifyRequest>();
  verify->request = auth_id;
  verify->username = msg.username;
  verify->password = msg.password;
  network().send(*this, central_, std::move(verify));
}

void FaucetsDaemon::handle_auth_reply(const proto::AuthVerifyReply& msg) {
  PendingRfb* pending = pending_auth_.find(msg.request);
  if (pending == nullptr) return;
  const PendingRfb rfb = std::move(*pending);
  pending_auth_.erase(msg.request);
  if (!msg.ok) {
    auto reply = std::make_unique<proto::BidReply>();
    reply->request = rfb.request;
    reply->bid = market::Bid::decline(cluster_, id());
    ++bids_declined_;
    bids_declined_ctr_->inc();
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kBidDeclined,
                                               rfb.request, BidId{}, 0.0));
    network().send(*this, rfb.client, std::move(reply));
    return;
  }
  if (config_.cache_auth) auth_cache_.emplace(rfb.username, msg.user);
  answer_rfb(rfb);
}

void FaucetsDaemon::answer_rfb(const PendingRfb& rfb) {
  const qos::QosContract& contract = *rfb.contract;
  const auto admission = cm_->query(contract);
  market::BidContext ctx;
  ctx.now = now();
  ctx.cm = cm_.get();
  ctx.contract = &contract;
  ctx.admission = &admission;
  ctx.grid_history = grid_history_;

  auto reply = std::make_unique<proto::BidReply>();
  reply->request = rfb.request;
  const auto multiplier = admission.accept ? bidgen_->multiplier(ctx) : std::nullopt;
  if (!multiplier) {
    reply->bid = market::Bid::decline(cluster_, id());
    ++bids_declined_;
    bids_declined_ctr_->inc();
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kBidDeclined,
                                               rfb.request, BidId{}, 0.0));
  } else {
    const BidId bid_id = bid_ids_.next();
    reply->bid = market::make_bid(bid_id, *cm_, id(), contract, admission,
                                  *multiplier, now(), config_.bid_validity);
    // Every bid lives bid_validity, so the expired ones are the oldest. A
    // reserve checks expiry itself; forgetting only bounds the memory.
    issued_bids_.forget_front(
        [this](const IssuedBid& b) { return b.expires_at < now(); });
    issued_bids_.push(bid_id,
                      IssuedBid{rfb.contract, reply->bid.price, reply->bid.expires_at});
    ++bids_issued_;
    bids_issued_ctr_->inc();
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kBidIssued,
                                               rfb.request, bid_id,
                                               reply->bid.price));
  }
  network().send(*this, rfb.client, std::move(reply));
}

void FaucetsDaemon::refuse_award(EntityId to, RequestId request, BidId bid,
                                 std::string reason) {
  auto reply = std::make_unique<proto::AwardAck>();
  reply->request = request;
  reply->accepted = false;
  reply->reason = std::move(reason);
  ++awards_refused_;
  awards_refused_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kAwardRefused,
                                             request, bid, 0.0));
  network().send(*this, to, std::move(reply));
}

void FaucetsDaemon::handle_reserve(const proto::ReserveRequest& msg) {
  // Duplicate reserve (our reply was lost and the client retried): re-send
  // the identical acceptance so the retry converges instead of refusing.
  if (auto dup = reserved_bids_.find(msg.bid); dup != reserved_bids_.end()) {
    const ReservedAward& held = reservations_.at(dup->second);
    auto reply = std::make_unique<proto::ReserveReply>();
    reply->request = msg.request;
    reply->accepted = true;
    reply->reservation = dup->second;
    reply->price = held.price;
    reply->lease_until = held.lease_until;
    network().send(*this, msg.from, std::move(reply));
    return;
  }

  auto reply = std::make_unique<proto::ReserveReply>();
  reply->request = msg.request;

  const IssuedBid* bid = issued_bids_.find(msg.bid);
  if (bid == nullptr || bid->expires_at < now()) {
    reply->accepted = false;
    reply->reason = "bid unknown or expired";
    ++awards_refused_;
    awards_refused_ctr_->inc();
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kAwardRefused,
                                               msg.request, msg.bid, 0.0));
    network().send(*this, msg.from, std::move(reply));
    return;
  }

  const double lease_until = now() + config_.reservation_lease;
  const auto reservation = cm_->reserve(*bid->contract, lease_until);
  if (!reservation) {
    reply->accepted = false;
    reply->reason = "cluster state changed since bid";
    ++awards_refused_;
    awards_refused_ctr_->inc();
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kAwardRefused,
                                               msg.request, msg.bid, 0.0));
    issued_bids_.erase(msg.bid);
    network().send(*this, msg.from, std::move(reply));
    return;
  }

  ReservedAward held;
  held.bid = msg.bid;
  held.request = msg.request;
  held.price = bid->price;
  held.lease_until = lease_until;
  held.contract = bid->contract;
  held.user = msg.user;
  reservations_.emplace(*reservation, std::move(held));
  reserved_bids_.emplace(msg.bid, *reservation);
  issued_bids_.erase(msg.bid);
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kAwardReserved,
                                             msg.request, msg.bid,
                                             reservations_.at(*reservation).price));

  reply->accepted = true;
  reply->reservation = *reservation;
  reply->price = reservations_.at(*reservation).price;
  reply->lease_until = lease_until;
  network().send(*this, msg.from, std::move(reply));
}

void FaucetsDaemon::handle_commit(const proto::CommitRequest& msg) {
  // Duplicate commit (our AwardAck was lost): re-send the same acceptance.
  if (auto dup = committed_.find(msg.reservation); dup != committed_.end()) {
    if (!msg.commit) return;  // stale abort after a successful commit
    auto reply = std::make_unique<proto::AwardAck>();
    reply->request = msg.request;
    reply->accepted = true;
    reply->job = dup->second.job;
    reply->price = dup->second.price;
    network().send(*this, msg.from, std::move(reply));
    return;
  }

  auto res_it = reservations_.find(msg.reservation);
  if (res_it == reservations_.end()) {
    // Abort of something already gone is idempotent; a commit for an
    // unknown lease (it expired, or we crashed) must be refused so the
    // client re-bids.
    if (msg.commit) {
      refuse_award(msg.from, msg.request, BidId{}, "reservation unknown or expired");
    }
    return;
  }

  const ReservedAward held = res_it->second;
  reservations_.erase(res_it);
  reserved_bids_.erase(held.bid);

  if (!msg.commit) {
    cm_->release_reservation(msg.reservation);
    context().trace().record(obs::market_event(now(), id(),
                                               obs::TraceEventKind::kAwardAborted,
                                               msg.request, held.bid, held.price));
    return;
  }

  const auto job_id = cm_->commit_reservation(msg.reservation, held.user, msg.span);
  if (!job_id) {
    refuse_award(msg.from, msg.request, held.bid, "cluster state changed since bid");
    return;
  }

  ++awards_confirmed_;
  awards_confirmed_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kAwardConfirmed,
                                             msg.request, held.bid, held.price));
  const EntityId notify = msg.notify.valid() ? msg.notify : msg.from;
  const RequestId notify_request =
      msg.notify_request.valid() ? msg.notify_request : held.request;
  running_.emplace(*job_id, RunningJob{notify, notify_request, held.user, held.price});
  committed_.emplace(msg.reservation, CommittedAward{*job_id, held.price});

  if (appspector_.valid()) {
    auto reg = std::make_unique<proto::RegisterJobMonitor>();
    reg->job = *job_id;
    reg->cluster = cluster_;
    reg->user = held.user;
    reg->application = held.contract->environment.application;
    network().send(*this, appspector_, std::move(reg));
  }
  auto reply = std::make_unique<proto::AwardAck>();
  reply->request = msg.request;
  reply->accepted = true;
  reply->job = *job_id;
  reply->price = held.price;
  network().send(*this, msg.from, std::move(reply));
}

void FaucetsDaemon::on_lease_expired(ReservationId reservation) {
  auto it = reservations_.find(reservation);
  if (it == reservations_.end()) return;
  reserved_bids_.erase(it->second.bid);
  reservations_.erase(it);
}

void FaucetsDaemon::handle_upload(const proto::UploadFiles& msg) {
  // Input staging: by the time this message is delivered the bandwidth
  // model has already charged the transfer time. Nothing further to do —
  // the CM holds the job. A status push tells AppSpector the job is live.
  if (!appspector_.valid()) return;
  const job::Job* j = cm_->find_job(msg.job);
  if (j == nullptr) return;
  auto update = std::make_unique<proto::JobStatusUpdate>();
  update->job = msg.job;
  update->cluster = cluster_;
  update->state = std::string(job::to_string(j->state()));
  update->procs = j->procs();
  update->progress = j->progress_at(now());
  network().send(*this, appspector_, std::move(update));
}

void FaucetsDaemon::handle_poll(const proto::PollRequest& msg) {
  auto reply = std::make_unique<proto::PollReply>();
  reply->cluster = cluster_;
  reply->queued_jobs = cm_->queued_count();
  network().send(*this, msg.from, std::move(reply));
}

void FaucetsDaemon::on_job_complete(const job::Job& job) {
  auto it = running_.find(job.id());
  if (it == running_.end()) return;  // locally submitted job (no market)
  const RunningJob info = it->second;
  running_.erase(it);

  revenue_ += info.price;
  revenue_gauge_->add(info.price);

  // Notify the client (output files travel with the notice).
  auto notice = std::make_unique<proto::JobCompleteNotice>();
  notice->job = job.id();
  notice->request = info.request;
  notice->finish_time = job.finish_time();
  notice->price_charged = info.price;
  notice->output_mb = job.contract().resources.output_mb;
  network().send(*this, info.client, std::move(notice));

  // Tell AppSpector.
  if (appspector_.valid()) {
    auto update = std::make_unique<proto::JobStatusUpdate>();
    update->job = job.id();
    update->cluster = cluster_;
    update->state = "completed";
    update->procs = 0;
    update->progress = 1.0;
    network().send(*this, appspector_, std::move(update));
  }

  // Report the settled contract to the Central Server (price history +
  // billing / bartering).
  auto settled = std::make_unique<proto::ContractSettled>();
  settled->record.time = now();
  settled->record.cluster = cluster_;
  settled->record.procs = job.contract().min_procs;
  settled->record.work = job.total_work();
  settled->record.price = info.price;
  settled->user = info.user;
  network().send(*this, central_, std::move(settled));
}

void FaucetsDaemon::push_monitor_updates() {
  if (appspector_.valid()) {
    for (const auto* j : cm_->running_jobs()) {
      auto update = std::make_unique<proto::JobStatusUpdate>();
      update->job = j->id();
      update->cluster = cluster_;
      update->state = std::string(job::to_string(j->state()));
      update->procs = j->procs();
      update->progress = j->progress_at(now());
      update->utilization = static_cast<double>(cm_->busy_procs()) /
                            std::max(1, cm_->machine().total_procs);
      network().send(*this, appspector_, std::move(update));
    }
  }
  monitor_timer_ = engine().schedule_after(config_.monitor_interval,
                                           [this] { push_monitor_updates(); });
}

}  // namespace faucets

#include "src/faucets/central.hpp"

#include <algorithm>

#include "src/sim/context.hpp"

namespace faucets {

CentralServer::CentralServer(sim::SimContext& ctx, CentralServerConfig config)
    : sim::Entity("faucets-server", ctx),
      config_(config),
      price_history_(config.history_capacity, config.history_window) {
  network().attach(*this);
  auto& metrics = ctx.metrics();
  auth_ok_ctr_ = &metrics.counter("faucets_auth_ok_total",
                                  "Successful logins and credential checks");
  auth_denied_ctr_ = &metrics.counter("faucets_auth_denied_total",
                                      "Rejected logins and credential checks");
  ledger_.set_debt_limit(config_.barter_debt_limit);
  ledger_.set_clock(&now_cache_);
  if (config_.poll_interval > 0.0) {
    poll_timer_ = this->engine().schedule_after(config_.poll_interval,
                                                [this] { poll_daemons(); });
  }
}

std::optional<UserId> CentralServer::register_user(const std::string& username,
                                                   const std::string& password,
                                                   ClusterId home_cluster) {
  auto id = users_.add_user(username, password);
  if (id && home_cluster.valid()) home_clusters_.emplace(*id, home_cluster);
  if (id) accounts_.open_account(*id, 0.0);
  return id;
}

void CentralServer::open_barter_account(ClusterId cluster, double credits) {
  ledger_.open_account(cluster, credits);
}

std::optional<ClusterId> CentralServer::home_cluster_of(UserId user) const {
  auto it = home_clusters_.find(user);
  if (it == home_clusters_.end()) return std::nullopt;
  return it->second;
}

std::vector<proto::ServerInfo> CentralServer::filter_servers(
    const qos::QosContract& contract, UserId user) const {
  std::vector<proto::ServerInfo> out;
  // Known-applications policy (§2.2): a fact about the contract alone.
  if (!application_known(contract.environment.application)) return out;
  const auto home = home_cluster_of(user);
  const bool barter = config_.billing == BillingMode::kBarter && home.has_value();

  for (const Listing& row : listing_) {
    // Static properties (§5.1): size, memory, software environment; the
    // checks of MachineSpec::can_ever_run, on the listed fields.
    if (contract.min_procs > row.total_procs) continue;
    if (contract.resources.memory_per_proc_mb > row.memory_per_proc_mb) continue;
    if (!contract.environment.satisfied_by(row.provides)) continue;
    const DirectoryEntry& poll = *row.poll;
    if (!poll.alive) continue;
    // Dynamic properties: recent queue depth.
    if (config_.dynamic_queue_limit >= 0 &&
        poll.queued_jobs > static_cast<std::size_t>(config_.dynamic_queue_limit)) {
      continue;
    }
    // Barter mode (§5.5.3): foreign clusters are only offered when the home
    // cluster can pay for the run with credits.
    if (barter && row.cluster != *home) {
      const double est_credits = contract.work * row.cost_per_cpu_second /
                                 std::max(row.speed_factor, 1e-9);
      if (!ledger_.can_spend(*home, est_credits)) continue;
    }
    out.push_back(proto::ServerInfo{row.cluster, poll.daemon});
  }

  // The listing is in ClusterId order. A user's home cluster goes first ("the
  // system tries to submit the job to the user's Home Cluster", §5.5.3) in
  // every billing mode, so dollar-mode RFBs reach it first too.
  if (home.has_value()) {
    const auto it = std::find_if(out.begin(), out.end(),
                                 [&](const proto::ServerInfo& s) { return s.cluster == *home; });
    if (it != out.end()) std::rotate(out.begin(), it, std::next(it));
  }
  return out;
}

void CentralServer::on_message(const sim::Message& msg) {
  now_cache_ = now();
  switch (msg.kind()) {
    case sim::MessageKind::kLogin:
      handle_login(sim::message_cast<proto::LoginRequest>(msg));
      break;
    case sim::MessageKind::kDirectoryRequest:
      handle_directory(sim::message_cast<proto::DirectoryRequest>(msg));
      break;
    case sim::MessageKind::kRegisterDaemon:
      handle_register(sim::message_cast<proto::RegisterDaemon>(msg));
      break;
    case sim::MessageKind::kPollReply:
      handle_poll_reply(sim::message_cast<proto::PollReply>(msg));
      break;
    case sim::MessageKind::kAuthRequest:
      handle_auth_verify(sim::message_cast<proto::AuthVerifyRequest>(msg));
      break;
    case sim::MessageKind::kSettled:
      handle_settled(sim::message_cast<proto::ContractSettled>(msg));
      break;
    default:
      break;
  }
}

void CentralServer::record_auth(bool ok, UserId user, RequestId request) {
  (ok ? auth_ok_ctr_ : auth_denied_ctr_)->inc();
  context().trace().record(obs::auth_event(
      now(), id(),
      ok ? obs::TraceEventKind::kAuthOk : obs::TraceEventKind::kAuthDenied, user,
      request));
}

void CentralServer::handle_login(const proto::LoginRequest& msg) {
  auto reply = std::make_unique<proto::LoginReply>();
  const auto user = users_.verify(msg.username, msg.password);
  reply->ok = user.has_value();
  if (user) {
    reply->user = *user;
    reply->session = sessions_.open(*user);
  }
  record_auth(reply->ok, user.value_or(UserId{}), RequestId{});
  network().send(*this, msg.from, std::move(reply));
}

void CentralServer::handle_directory(const proto::DirectoryRequest& msg) {
  auto reply = std::make_unique<proto::DirectoryReply>();
  reply->request = msg.request;
  if (const auto user = sessions_.lookup(msg.session)) {
    reply->servers = filter_servers(msg.contract, *user);
  }
  if (config_.price_band && *config_.price_band > 1.0) {
    if (const auto normal = price_history_.average_unit_price(now())) {
      reply->regulation = proto::PriceBand{*normal, *config_.price_band};
    }
  }
  network().send(*this, msg.from, std::move(reply));
}

void CentralServer::handle_register(const proto::RegisterDaemon& msg) {
  // A repeat registration (a retry, or a restarted daemon) replaces both
  // the poll state and the listing; the map node, and so the poll order,
  // stays.
  DirectoryEntry& entry = directory_[msg.cluster];
  entry = DirectoryEntry{.daemon = msg.from};
  auto row = std::lower_bound(
      listing_.begin(), listing_.end(), msg.cluster,
      [](const Listing& l, ClusterId cluster) { return l.cluster < cluster; });
  if (row == listing_.end() || row->cluster != msg.cluster) {
    row = listing_.insert(row, Listing{});
  }
  const cluster::MachineSpec& m = msg.machine;
  *row = Listing{.cluster = msg.cluster,
                 .total_procs = m.total_procs,
                 .memory_per_proc_mb = m.memory_per_proc_mb,
                 .cost_per_cpu_second = m.cost_per_cpu_second,
                 .speed_factor = m.speed_factor,
                 .poll = &entry,
                 .provides = m.provides};
  auto ack = std::make_unique<proto::RegisterAck>();
  ack->ok = true;
  network().send(*this, msg.from, std::move(ack));
}

void CentralServer::handle_poll_reply(const proto::PollReply& msg) {
  auto it = directory_.find(msg.cluster);
  if (it == directory_.end()) return;
  it->second.queued_jobs = msg.queued_jobs;
  it->second.missed_polls = 0;
  it->second.alive = true;
}

void CentralServer::handle_auth_verify(const proto::AuthVerifyRequest& msg) {
  auto reply = std::make_unique<proto::AuthVerifyReply>();
  reply->request = msg.request;
  const auto user = users_.verify(msg.username, msg.password);
  reply->ok = user.has_value();
  if (user) reply->user = *user;
  record_auth(reply->ok, user.value_or(UserId{}), msg.request);
  network().send(*this, msg.from, std::move(reply));
}

void CentralServer::handle_settled(const proto::ContractSettled& msg) {
  price_history_.record(msg.record);
  switch (config_.billing) {
    case BillingMode::kDollars:
    case BillingMode::kServiceUnits:
      accounts_.charge(msg.user, msg.record.price);
      break;
    case BillingMode::kBarter: {
      const auto home = home_cluster_of(msg.user);
      if (home) ledger_.transfer(*home, msg.record.cluster, msg.record.price);
      break;
    }
  }
  if (store_ != nullptr && snapshot_every_ > 0 &&
      ++settled_since_snapshot_ >= snapshot_every_) {
    settled_since_snapshot_ = 0;
    snapshot_to_store();
  }
}

void CentralServer::poll_daemons() {
  for (auto& [cluster, entry] : directory_) {
    ++entry.missed_polls;
    if (entry.missed_polls > config_.max_missed_polls) entry.alive = false;
    network().send(*this, entry.daemon, std::make_unique<proto::PollRequest>());
  }
  poll_timer_ =
      engine().schedule_after(config_.poll_interval, [this] { poll_daemons(); });
}

}  // namespace faucets

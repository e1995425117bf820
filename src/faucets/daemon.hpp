// The Faucets Daemon (FD) — "the representative of the Compute Server to
// the faucets system" (§2). It registers with the Central Server, answers
// polls, mediates request-for-bids between clients and the local Cluster
// Manager, verifies client credentials against the Central Server (it holds
// no account data itself, §2.2), confirms awards (two-phase, §5.3), stages
// files, registers running jobs with AppSpector, and reports settled
// contracts for price history and accounting.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cluster/server.hpp"
#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/market/bidgen.hpp"
#include "src/sim/network.hpp"

namespace faucets {

struct DaemonConfig {
  /// How long an issued bid stays binding (seconds).
  double bid_validity = 120.0;
  /// Cache successful credential checks so repeat submissions by the same
  /// user skip the FS round trip (the GSI single-sign-on optimization the
  /// paper anticipates). Off = the paper's current behaviour.
  bool cache_auth = false;
  /// Interval between AppSpector status pushes for running jobs; 0 = only
  /// on start/completion.
  double monitor_interval = 0.0;
  /// How long a reserve holds capacity before the lease expires and the
  /// capacity returns to the market (two-phase award, §5.2).
  double reservation_lease = 30.0;
};

class FaucetsDaemon final : public sim::Entity {
 public:
  /// `retry` is the backoff schedule of the daemon's own exchange with the
  /// Central Server (registration); a grid passes GridConfig::retry.
  FaucetsDaemon(sim::SimContext& ctx, ClusterId cluster,
                std::unique_ptr<cluster::ClusterManager> cm,
                std::unique_ptr<market::BidGenerator> bidgen,
                EntityId central_server, EntityId appspector = EntityId{},
                DaemonConfig config = {}, RetryPolicy retry = {});

  /// Announce this daemon to the Central Server (call once the FS is up).
  void register_with_central();

  /// Take this Compute Server down gracefully (§3): checkpoint every live
  /// job, notify its client so the job can move to another machine, then
  /// disappear from the network (polls go unanswered and the Central
  /// Server eventually marks the server down).
  void drain_and_shutdown();

  /// Crash without warning: no checkpoints, no eviction notices. Clients
  /// only recover via their completion watchdog.
  void crash();

  /// Come back after a crash: rejoin the network under the same EntityId
  /// (directory rows and clients' stored addresses stay valid), re-register
  /// with the Central Server, and start answering RFBs again. Jobs lost in
  /// the crash stay lost — their clients re-bid via watchdog/eviction.
  void restart();

  [[nodiscard]] ClusterId cluster_id() const noexcept { return cluster_; }
  [[nodiscard]] cluster::ClusterManager& cm() noexcept { return *cm_; }
  [[nodiscard]] const cluster::ClusterManager& cm() const noexcept { return *cm_; }

  /// Revenue actually collected from completed contracts.
  [[nodiscard]] double revenue() const noexcept { return revenue_; }
  [[nodiscard]] std::uint64_t bids_issued() const noexcept { return bids_issued_; }
  [[nodiscard]] std::uint64_t bids_declined() const noexcept { return bids_declined_; }
  [[nodiscard]] std::uint64_t awards_confirmed() const noexcept { return awards_confirmed_; }
  [[nodiscard]] std::uint64_t awards_refused() const noexcept { return awards_refused_; }
  /// Issued bids still held for a reserve: neither taken nor forgotten.
  [[nodiscard]] std::size_t open_bids() const noexcept { return issued_bids_.size(); }
  /// RFBs waiting for the Central Server's credential check.
  [[nodiscard]] std::size_t pending_auth() const noexcept { return pending_auth_.size(); }

  /// Point the daemon's market-aware bidder at the FS price history feed.
  void set_grid_history(const market::PriceHistory* history) noexcept {
    grid_history_ = history;
  }

  void on_message(const sim::Message& msg) override;

 private:
  /// Records filed under sequential ids, oldest first. This daemon hands
  /// the ids out one by one and records leave only from the front, so the
  /// held ids form one contiguous range and a lookup is an index. A record
  /// erased from the middle leaves an empty slot that goes once it reaches
  /// the front. The slots are a vector, which allocates nothing until the
  /// first record (most daemons of a large grid never get one), and its
  /// dead prefix is dropped once it is half the vector.
  template <typename IdT, typename T>
  class Book {
   public:
    /// File `value` under `id`, the id after the newest one filed.
    void push(IdT id, T value) {
      if (head_ == slots_.size()) {  // empty: the range restarts at `id`
        slots_.clear();
        head_ = 0;
        first_ = id.value();
      }
      assert(id.value() == first_ + (slots_.size() - head_));
      slots_.emplace_back(std::move(value));
      ++held_;
    }
    /// The record under `id`, or null if it was erased, forgotten, or never
    /// filed here.
    [[nodiscard]] T* find(IdT id) noexcept {
      if (id.value() < first_ || id.value() - first_ >= slots_.size() - head_) {
        return nullptr;
      }
      std::optional<T>& slot = slots_[head_ + (id.value() - first_)];
      return slot ? &*slot : nullptr;
    }
    void erase(IdT id) {
      if (find(id) == nullptr) return;
      slots_[head_ + (id.value() - first_)].reset();
      --held_;
      forget_front([](const T&) { return false; });
    }
    /// Drop records from the front while `stale` holds for them.
    template <typename Stale>
    void forget_front(Stale stale) {
      while (head_ < slots_.size() && (!slots_[head_] || stale(*slots_[head_]))) {
        if (slots_[head_]) {
          slots_[head_].reset();
          --held_;
        }
        ++head_;
        ++first_;
      }
      if (2 * head_ >= slots_.size()) {
        slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void clear() noexcept {
      slots_.clear();
      head_ = 0;
      held_ = 0;
    }
    [[nodiscard]] std::size_t size() const noexcept { return held_; }

   private:
    std::vector<std::optional<T>> slots_;
    std::size_t head_ = 0;                     // slots_[head_] is the oldest
    typename IdT::underlying_type first_ = 0;  // id of slots_[head_]
    std::size_t held_ = 0;
  };

  /// An offer the daemon stays bound to until `expires_at` (§5.2).
  struct IssuedBid {
    std::shared_ptr<const qos::QosContract> contract;
    double price = 0.0;
    double expires_at = 0.0;
  };
  /// An RFB whose credentials are out for checking at the Central Server.
  struct PendingRfb {
    EntityId client;
    RequestId request;
    std::shared_ptr<const qos::QosContract> contract;
    double asked_at = 0.0;
    std::string username;  // kept only to fill the auth cache
  };
  struct RunningJob {
    EntityId client;
    RequestId request;
    UserId user;
    double price = 0.0;
  };
  /// Daemon-side state of one reservation lease awaiting commit.
  struct ReservedAward {
    BidId bid;
    RequestId request;
    double price = 0.0;
    double lease_until = 0.0;
    std::shared_ptr<const qos::QosContract> contract;
    UserId user;
  };
  /// Remembered outcome of a committed reservation, so a duplicate
  /// CommitRequest (the client retried because the first AwardAck was lost)
  /// gets the identical reply instead of a refusal.
  struct CommittedAward {
    JobId job;
    double price = 0.0;
  };

  void handle_rfb(const proto::RequestForBids& msg);
  void handle_auth_reply(const proto::AuthVerifyReply& msg);
  void handle_reserve(const proto::ReserveRequest& msg);
  void handle_commit(const proto::CommitRequest& msg);
  void handle_upload(const proto::UploadFiles& msg);
  void handle_poll(const proto::PollRequest& msg);
  void answer_rfb(const PendingRfb& rfb);
  void on_job_complete(const job::Job& job);
  void on_lease_expired(ReservationId id);
  void push_monitor_updates();
  void refuse_award(EntityId to, RequestId request, BidId bid, std::string reason);
  void wire_cm_callbacks();
  void send_registration();

  ClusterId cluster_;
  std::unique_ptr<cluster::ClusterManager> cm_;
  std::unique_ptr<market::BidGenerator> bidgen_;
  EntityId central_;
  EntityId appspector_;
  DaemonConfig config_;
  RetryPolicy retry_;
  const market::PriceHistory* grid_history_ = nullptr;

  IdGenerator<BidId> bid_ids_;
  IdGenerator<RequestId> auth_request_ids_;
  // Both books forget lazily, when the next record is filed: a sweep timer
  // would add events to every run.
  Book<BidId, IssuedBid> issued_bids_;
  Book<RequestId, PendingRfb> pending_auth_;  // by auth request id
  std::unordered_map<std::string, UserId> auth_cache_;
  std::unordered_map<JobId, RunningJob> running_;
  std::unordered_map<ReservationId, ReservedAward> reservations_;
  std::unordered_map<BidId, ReservationId> reserved_bids_;  // dedup ReserveRequest
  std::unordered_map<ReservationId, CommittedAward> committed_;  // dedup Commit
  sim::EventHandle monitor_timer_;
  RetryState register_retry_;

  double revenue_ = 0.0;
  std::uint64_t bids_issued_ = 0;
  std::uint64_t bids_declined_ = 0;
  std::uint64_t awards_confirmed_ = 0;
  std::uint64_t awards_refused_ = 0;

  // Grid-wide market counters (shared across daemons via the registry).
  obs::Counter* bids_issued_ctr_ = nullptr;
  obs::Counter* bids_declined_ctr_ = nullptr;
  obs::Counter* awards_confirmed_ctr_ = nullptr;
  obs::Counter* awards_refused_ctr_ = nullptr;
  obs::Gauge* revenue_gauge_ = nullptr;
};

}  // namespace faucets

// The Faucets Client (FC) — §2: authenticates with the Central Server,
// requests the list of matching Compute Servers, solicits bids from each
// daemon, selects a bid with its evaluator, awards the job (with retry to
// the next-best bid if the daemon refuses at commit time), uploads input
// files, and tracks completion notices.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/job/source.hpp"
#include "src/job/workload.hpp"
#include "src/market/evaluation.hpp"
#include "src/sim/network.hpp"
#include "src/util/stats.hpp"

namespace faucets {

struct ClientConfig {
  std::string username;
  std::string password;
  /// How long to wait for bids before evaluating with what arrived.
  double bid_timeout = 10.0;
  /// Barter/home-cluster preference (§5.5.3): take a viable bid from the
  /// home cluster before comparing prices elsewhere.
  std::optional<ClusterId> home_cluster;
  /// Input upload size if the contract does not specify one.
  double default_input_mb = 8.0;
  /// Babysitting watchdog (§1, §3): if a placed job's promised completion
  /// passes by this margin without a completion notice, assume the server
  /// died and resubmit from scratch. Disengaged = no watchdog. (The old
  /// `watchdog_margin < 0` sentinel is gone; see DESIGN.md §8.)
  std::optional<double> watchdog_margin;
  /// Backoff schedule for login, directory, and reserve/commit exchanges.
  RetryPolicy retry;
  /// How many full RFB rounds to run before a job without a viable bid is
  /// declared unplaced. 1 = the paper's one-shot market; chaos scenarios
  /// raise it so a partition that heals gets a fresh round (re-bid).
  int bid_rounds = 1;
  /// Brokered submission (§5.3): when set, the client sends one
  /// SubmitJobRequest to this broker agent instead of broadcasting
  /// request-for-bids itself. `criteria` replaces the local evaluator.
  std::optional<EntityId> broker;
  proto::SelectionCriteria criteria = proto::SelectionCriteria::kLeastCost;
};

/// Outcome of one submission, for experiment bookkeeping.
struct SubmissionOutcome {
  enum class Status {
    kPending,
    kPlaced,
    kNoServers,
    kNoBids,
    kAllRefused,
    kCompleted,
    kTimedOut,  // a retry schedule was exhausted (partition / crash)
  };
  Status status = Status::kPending;
  ClusterId cluster;
  JobId job;                  // daemon-side id, valid once placed
  SpanId span;                // root submission span in ctx.spans()
  double price = 0.0;
  double submit_time = 0.0;
  double award_time = 0.0;    // when the contract was confirmed
  double finish_time = 0.0;
  double payoff = 0.0;        // value_at(finish) from the client's payoff fn
  std::size_t bids_received = 0;
  // Contract terms captured at submit, so deadline-outcome accounting
  // (telemetry reports) needs no access to the contract afterwards.
  bool has_deadline = false;
  double soft_deadline = 0.0;
  double hard_deadline = 0.0;
  double payoff_max = 0.0;    // payoff at or before the soft deadline
};

class FaucetsClient final : public sim::Entity {
 public:
  FaucetsClient(sim::SimContext& ctx, EntityId central,
                std::unique_ptr<market::BidEvaluator> evaluator, ClientConfig config);

  /// Pull-based submission (DESIGN.md §13): log in and arm one timer at
  /// `source`'s next submit time; each firing pulls exactly one request and
  /// re-arms for the next, so the client never holds the workload. The
  /// source must outlive the run and yield nondecreasing submit times.
  void run_source(job::WorkloadSource& source);

  /// Compatibility adapter kept for tests: wraps the vector in an owned
  /// VectorSource and streams it through run_source().
  void run_workload(std::vector<job::JobRequest> requests);

  /// Submit one contract right away (used by examples and tests).
  void submit_now(const qos::QosContract& contract);

  /// True once the submission-timer chain has pulled everything its source
  /// will ever yield (vacuously true without a source). The run loop is
  /// finished when every client is drained *and* idle.
  [[nodiscard]] bool workload_drained() {
    return source_ == nullptr || source_->exhausted();
  }

  // --- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<SubmissionOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] bool logged_in() const noexcept { return session_.has_value(); }
  /// True when no submission is still in flight (bidding, running, or
  /// waiting for login).
  [[nodiscard]] bool idle() const noexcept {
    return pending_.empty() && pre_login_queue_.empty();
  }
  [[nodiscard]] std::size_t submissions() const noexcept { return outcomes_.size(); }
  [[nodiscard]] double total_spent() const noexcept { return total_spent_; }
  [[nodiscard]] double total_payoff() const noexcept { return total_payoff_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t unplaced() const noexcept { return unplaced_; }
  /// Seconds from submission to confirmed award (E7's time-to-award).
  [[nodiscard]] const Samples& award_latency() const noexcept { return award_latency_; }
  /// Jobs moved to another Compute Server after an eviction notice.
  [[nodiscard]] std::uint64_t migrations() const noexcept { return migrations_; }
  /// Jobs restarted from scratch by the watchdog after a silent crash.
  [[nodiscard]] std::uint64_t watchdog_restarts() const noexcept {
    return watchdog_restarts_;
  }
  /// Bids discarded by market regulation (§5.5.1).
  [[nodiscard]] std::uint64_t regulated_out() const noexcept { return regulated_out_; }
  void on_message(const sim::Message& msg) override;

 private:
  /// Where one request is in the two-phase award handshake.
  enum class AwardPhase { kNone, kReserving, kCommitting };

  struct PendingJob {
    std::size_t outcome_index = 0;
    qos::QosContract contract;
    std::vector<market::Bid> bids;
    std::size_t expected_bids = 0;
    bool evaluated = false;
    bool awaiting_directory = false;  // dedup late/duplicate directory replies
    sim::EventHandle timeout;
    sim::EventHandle watchdog;
    double promised_completion = 0.0;
    std::optional<proto::PriceBand> regulation;  // from the directory (§5.5.1)
    std::vector<BidId> refused;  // bids whose award was refused (two-phase)
    // Two-phase award state: the winning bid being reserved/committed.
    AwardPhase phase = AwardPhase::kNone;
    BidId winner_bid;
    EntityId winner_daemon;
    double winner_price = 0.0;
    ReservationId reservation;
    RetryState dir_retry;    // directory (or brokered submit) exchange
    RetryState award_retry;  // reserve/commit exchange
    int round = 0;           // completed RFB rounds (for bid_rounds)
    std::uint32_t submit_attempt = 0;  // bumped on each genuine resubmission
    SpanId root;   // kSubmission span, open until a terminal outcome
    SpanId rfb;    // current RFB round
    SpanId award;  // current award attempt
  };

  void login();
  void send_login();
  /// Arm the next submission timer off source_->peek_next_submit_time();
  /// no-op once the source is exhausted.
  void arm_next_submission();
  void on_submission_due();
  void submit(const qos::QosContract& contract);
  void handle_login(const proto::LoginReply& msg);
  void handle_directory(const proto::DirectoryReply& msg);
  void handle_bid(const proto::BidReply& msg);
  void handle_reserve_reply(const proto::ReserveReply& msg);
  void handle_award_ack(const proto::AwardAck& msg);
  void handle_complete(const proto::JobCompleteNotice& msg);
  void handle_evicted(const proto::JobEvicted& msg);
  void handle_submit_reply(const proto::SubmitJobReply& msg);
  void send_directory_request(RequestId request);
  void send_brokered(RequestId request);
  void send_reserve(RequestId request);
  void send_commit(RequestId request);
  void on_directory_timeout(RequestId request);
  void on_award_timeout(RequestId request);
  /// The current winner's daemon is unresponsive or refused: mark its bids
  /// dead and pick the next-best bid (or finish the round).
  void give_up_on_winner(RequestId request);
  void record_retry(RequestId request, sim::MessageKind kind, EntityId peer,
                    int attempt);
  void record_timeout(sim::MessageKind kind, EntityId peer);
  /// Terminal outcome for a contract that never reached the market (login
  /// retries exhausted), so submitted == completed + unplaced still holds.
  void fail_unsubmitted(const qos::QosContract& contract);
  void arm_watchdog(RequestId request, double promised_completion);
  void on_placed(RequestId request, double price, ClusterId cluster,
                 EntityId daemon, JobId job, double promised_completion);
  void evaluate(RequestId request);
  void finish_request(RequestId request, SubmissionOutcome::Status status);
  /// Restart the bid/award cycle for a request already in pending_.
  void resubmit(RequestId request);

  sim::Network* network_;
  EntityId central_;
  std::unique_ptr<market::BidEvaluator> evaluator_;
  ClientConfig config_;

  // Pull-based workload feed (null until run_source). owned_source_ backs
  // the run_workload vector adapter only.
  job::WorkloadSource* source_ = nullptr;
  std::unique_ptr<job::WorkloadSource> owned_source_;

  std::optional<SessionId> session_;
  UserId user_;
  bool login_sent_ = false;
  bool login_failed_ = false;  // retry schedule exhausted; submissions fail fast
  RetryState login_retry_;
  std::deque<qos::QosContract> pre_login_queue_;

  IdGenerator<RequestId> request_ids_;
  std::unordered_map<RequestId, PendingJob> pending_;
  std::unordered_map<JobId, RequestId> placed_;  // running jobs by daemon JobId

  std::vector<SubmissionOutcome> outcomes_;
  Samples award_latency_;
  double total_spent_ = 0.0;
  double total_payoff_ = 0.0;
  std::uint64_t completed_ = 0;
  std::uint64_t unplaced_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t watchdog_restarts_ = 0;
  std::uint64_t regulated_out_ = 0;

  // Grid-wide registry instruments (shared across clients).
  obs::Counter* submitted_ctr_ = nullptr;
  obs::Counter* completed_ctr_ = nullptr;
  obs::Counter* unplaced_ctr_ = nullptr;
  obs::Counter* migrations_ctr_ = nullptr;
  obs::Counter* watchdog_ctr_ = nullptr;
  obs::Counter* retry_attempts_ctr_ = nullptr;
  obs::Counter* retry_timeouts_ctr_ = nullptr;
  obs::Counter* retry_exhausted_ctr_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;  // live submissions, all clients
  obs::Histogram* bid_latency_hist_ = nullptr;
  obs::Histogram* award_latency_hist_ = nullptr;
};

}  // namespace faucets

// The Faucets Client (FC) — §2: authenticates with the Central Server, runs
// one market round per job (MarketRound: directory, bids, selection with its
// evaluator, two-phase award) or hands the job to a broker agent, uploads
// input files, and tracks completion notices.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faucets/market_round.hpp"
#include "src/job/source.hpp"
#include "src/job/workload.hpp"
#include "src/util/stats.hpp"

namespace faucets {

struct ClientConfig {
  std::string username;
  std::string password;
  /// Barter/home-cluster preference (§5.5.3): take a viable bid from the
  /// home cluster before comparing prices elsewhere.
  std::optional<ClusterId> home_cluster;
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
  using Status = proto::SubmitStatus;
  Status status = Status::kPending;
  ClusterId cluster;
  JobId job;                  // daemon-side id, valid once placed
  SpanId span;                // root submission span in ctx.spans()
  double price = 0.0;
  double submit_time = 0.0;
  double award_time = 0.0;    // when the contract was confirmed
  double finish_time = 0.0;
  double payoff = 0.0;        // value_at(finish) from the client's payoff fn
  std::size_t bids_received = 0;  // offers at the last evaluation
  // Contract terms captured at submit, so deadline-outcome accounting
  // (telemetry reports) needs no access to the contract afterwards.
  bool has_deadline = false;
  double soft_deadline = 0.0;
  double hard_deadline = 0.0;
  double payoff_max = 0.0;    // payoff at or before the soft deadline
};

class FaucetsClient final : public MarketRound {
 public:
  FaucetsClient(sim::SimContext& ctx, EntityId central,
                std::unique_ptr<market::BidEvaluator> evaluator, ClientConfig config);

  /// Pull-based submission (DESIGN.md §13): log in and arm one timer at
  /// `source`'s next submit time; each firing pulls exactly one request and
  /// re-arms for the next, so the client never holds the workload. The
  /// source must outlive the run and yield nondecreasing submit times.
  void run_source(job::WorkloadSource& source);

  /// True once the submission-timer chain has pulled everything its source
  /// will ever yield (vacuously true without a source). The run loop is
  /// finished when every client is drained *and* idle; a client that is
  /// both stays so, since only its source feeds submit().
  [[nodiscard]] bool workload_drained() {
    return source_ == nullptr || source_->exhausted();
  }

  // --- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<SubmissionOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] bool logged_in() const noexcept { return me_.session.valid(); }
  /// True when no submission is still in flight (bidding, running, or
  /// waiting for login).
  [[nodiscard]] bool idle() const noexcept {
    return pending_.empty() && pre_login_queue_.empty();
  }
  [[nodiscard]] double total_spent() const noexcept { return total_spent_; }
  [[nodiscard]] double total_payoff() const noexcept { return total_payoff_; }
  /// Seconds from submission to confirmed award (E7's time-to-award).
  [[nodiscard]] const Samples& award_latency() const noexcept { return award_latency_; }
  void on_message(const sim::Message& msg) override;

 private:
  struct PendingJob : Round {
    std::size_t outcome_index = 0;
    sim::EventHandle watchdog;
    int rounds = 0;                    // completed RFB rounds (for bid_rounds)
    std::uint32_t submit_attempt = 0;  // bumped on each genuine resubmission
  };

  Round* find_round(RequestId request) override;
  const Principal& principal(const Round& round) const override;
  void on_offer(const Round& round) override;
  void on_selected(const Round& round, const market::Bid& winner) override;
  void on_awarded(RequestId request, Round& round,
                  const proto::AwardAck& ack) override;
  void on_round_failed(RequestId request, proto::SubmitStatus status) override;

  void login();
  void send_login();
  /// Arm the next submission timer off source_->peek_next_submit_time();
  /// no-op once the source is exhausted.
  void arm_next_submission();
  void on_submission_due();
  void submit(const qos::QosContract& contract);
  void handle_login(const proto::LoginReply& msg);
  void handle_complete(const proto::JobCompleteNotice& msg);
  void handle_evicted(const proto::JobEvicted& msg);
  void handle_submit_reply(const proto::SubmitJobReply& msg);
  void send_brokered(RequestId request);
  void on_brokered_timeout(RequestId request);
  /// Terminal outcome for a contract that never reached the market (login
  /// retries exhausted), so submitted == completed + unplaced still holds.
  void fail_unsubmitted(const qos::QosContract& contract);
  void arm_watchdog(RequestId request, double promised_completion);
  void on_placed(RequestId request, double price, ClusterId cluster,
                 EntityId daemon, JobId job, double promised_completion);
  void finish_request(RequestId request, SubmissionOutcome::Status status);
  /// Restart the bid/award cycle for a request already in pending_.
  void resubmit(RequestId request);

  std::unique_ptr<market::BidEvaluator> evaluator_;
  ClientConfig config_;

  // Pull-based workload feed (null until run_source).
  job::WorkloadSource* source_ = nullptr;

  Principal me_;  // session and user are valid once logged in
  bool login_sent_ = false;
  bool login_failed_ = false;  // retry schedule exhausted; submissions fail fast
  RetryState login_retry_;
  std::deque<qos::QosContract> pre_login_queue_;

  IdGenerator<RequestId> request_ids_;
  std::unordered_map<RequestId, PendingJob> pending_;

  std::vector<SubmissionOutcome> outcomes_;
  Samples award_latency_;
  double total_spent_ = 0.0;
  double total_payoff_ = 0.0;

  // Grid-wide registry instruments (shared across clients).
  obs::Counter* submitted_ctr_ = nullptr;
  obs::Counter* completed_ctr_ = nullptr;
  obs::Counter* unplaced_ctr_ = nullptr;
  obs::Counter* migrations_ctr_ = nullptr;
  obs::Counter* watchdog_ctr_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;  // live submissions, all clients
  obs::Histogram* bid_latency_hist_ = nullptr;
  obs::Histogram* award_latency_hist_ = nullptr;
};

}  // namespace faucets

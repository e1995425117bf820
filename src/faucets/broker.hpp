// Broker agent: the scalable asynchronous bid evaluation of §5.3.
//
// "We envisage a system in which each Compute Server as well as client is
// represented by several agent processes running on the distributed faucets
// framework. [...] The client agents simply specify user-specific selection
// criteria to evaluation." A BrokerAgent runs next to the Central Server,
// takes one SubmitJobRequest per job, performs the directory lookup, the
// request-for-bids fan-out, the evaluation under the client's criteria, and
// the two-phase award — so the client exchanges O(1) messages per job
// instead of O(#servers).
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/market/evaluation.hpp"
#include "src/sim/network.hpp"

namespace faucets {

struct BrokerConfig {
  /// How long to wait for bids before evaluating with what arrived.
  double bid_timeout = 10.0;
  /// Backoff schedule for the broker's directory and reserve/commit
  /// exchanges.
  RetryPolicy retry;
};

class BrokerAgent final : public sim::Entity {
 public:
  BrokerAgent(sim::SimContext& ctx, EntityId central, BrokerConfig config = {});

  void on_message(const sim::Message& msg) override;

  [[nodiscard]] std::uint64_t submissions() const noexcept { return submissions_; }
  [[nodiscard]] std::uint64_t placed() const noexcept { return placed_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  /// Where one request is in the two-phase award handshake.
  enum class AwardPhase { kNone, kReserving, kCommitting };

  struct Pending {
    EntityId client;
    RequestId client_request;
    std::uint32_t client_attempt = 0;
    SessionId session;
    UserId user;
    std::string username;
    std::string password;
    proto::SelectionCriteria criteria = proto::SelectionCriteria::kLeastCost;
    qos::QosContract contract;
    std::vector<market::Bid> bids;  // every reply, declined ones included
    std::size_t expected_bids = 0;  // one per server the round RFB'd
    bool evaluated = false;
    bool awaiting_directory = false;  // dedup late/duplicate directory replies
    double promised_completion = 0.0;
    sim::EventHandle timeout;
    std::vector<BidId> refused;
    // Two-phase award state: the winning bid being reserved/committed.
    AwardPhase phase = AwardPhase::kNone;
    BidId winner_bid;
    EntityId winner_daemon;
    ClusterId winner_cluster;
    double winner_price = 0.0;
    ReservationId reservation;
    RetryState dir_retry;
    RetryState award_retry;
    SpanId root;   // the client's kSubmission span, carried in SubmitJobRequest
    SpanId rfb;    // current RFB round, child of root
    SpanId award;  // current award attempt
  };

  void handle_submit(const proto::SubmitJobRequest& msg);
  void handle_directory(const proto::DirectoryReply& msg);
  void handle_bid(const proto::BidReply& msg);
  void handle_reserve_reply(const proto::ReserveReply& msg);
  void handle_award_ack(const proto::AwardAck& msg);
  void evaluate(RequestId id);
  void fail(RequestId id, std::string reason);
  void send_directory_request(RequestId id);
  void send_reserve(RequestId id);
  void send_commit(RequestId id);
  void on_directory_timeout(RequestId id);
  void on_award_timeout(RequestId id);
  void give_up_on_winner(RequestId id);
  void reply_to_client(RequestId id, proto::SubmitJobReply reply);
  void record_retry(RequestId id, int attempt);
  void record_timeout(sim::MessageKind kind, EntityId peer);

  [[nodiscard]] static std::unique_ptr<market::BidEvaluator> evaluator_for(
      proto::SelectionCriteria criteria);

  sim::Network* network_;
  EntityId central_;
  BrokerConfig config_;
  IdGenerator<RequestId> ids_;
  std::unordered_map<RequestId, Pending> pending_;
  /// Deduplication of client resends: one live brokered cycle per
  /// (client, client request), and the final reply is cached so a retried
  /// SubmitJobRequest whose reply was lost gets the identical answer.
  std::map<std::pair<EntityId, RequestId>, RequestId> active_;
  std::map<std::pair<EntityId, RequestId>,
           std::pair<std::uint32_t, proto::SubmitJobReply>>
      replied_;
  std::uint64_t submissions_ = 0;
  std::uint64_t placed_ = 0;
  std::uint64_t failed_ = 0;

  obs::Counter* retry_attempts_ctr_ = nullptr;
  obs::Counter* retry_timeouts_ctr_ = nullptr;
  obs::Counter* retry_exhausted_ctr_ = nullptr;
};

}  // namespace faucets

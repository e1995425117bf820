// Broker agent: the scalable asynchronous bid evaluation of §5.3.
//
// "We envisage a system in which each Compute Server as well as client is
// represented by several agent processes running on the distributed faucets
// framework. [...] The client agents simply specify user-specific selection
// criteria to evaluation." A BrokerAgent runs next to the Central Server,
// takes one SubmitJobRequest per job and runs the client's own market round
// (MarketRound) under the client's evaluator, credentials and home cluster,
// so the client exchanges O(1) messages per job instead of O(#servers).
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "src/faucets/market_round.hpp"

namespace faucets {

class BrokerAgent final : public MarketRound {
 public:
  BrokerAgent(sim::SimContext& ctx, EntityId central, RetryPolicy retry = {});

  void on_message(const sim::Message& msg) override;

  [[nodiscard]] std::uint64_t submissions() const noexcept { return submissions_; }
  [[nodiscard]] std::uint64_t placed() const noexcept { return placed_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  /// One brokered submission. Round::notify/notify_request name the client
  /// and its request id: the reply goes there, and so do the daemon's
  /// completion notices.
  struct Pending : Round {
    std::uint32_t client_attempt = 0;
    Principal client;
  };

  Round* find_round(RequestId request) override;
  const Principal& principal(const Round& round) const override;
  void on_awarded(RequestId request, Round& round,
                  const proto::AwardAck& ack) override;
  void on_round_failed(RequestId request, proto::SubmitStatus status) override;

  void handle_submit(const proto::SubmitJobRequest& msg);
  void reply_to_client(RequestId id, proto::SubmitJobReply reply);

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
};

}  // namespace faucets

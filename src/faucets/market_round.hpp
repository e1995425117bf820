// One market round (§5.1): directory lookup at the Central Server, the
// request-for-bids broadcast to every matching daemon, bid collection,
// selection, and the two-phase award (reserve -> commit, §5.2) with retry,
// best-effort abort and fallback to the next-best bid (§5.3).
//
// The Faucets Client runs this round for its own jobs and the broker agent
// runs it on a client's behalf (§5.3), so both derive from MarketRound. The
// round never asks which of them it serves: per-request state lives in a
// Round the derived entity owns, and the outcome leaves through the hooks
// at the bottom of the class.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/market/evaluation.hpp"
#include "src/sim/network.hpp"

namespace faucets {

class MarketRound : public sim::Entity {
 public:
  void on_message(const sim::Message& msg) override;

  /// Bids discarded by market regulation (§5.5.1).
  [[nodiscard]] std::uint64_t regulated_out() const noexcept { return regulated_out_; }

 protected:
  /// How long to wait for bids before evaluating with what arrived.
  static constexpr double kBidTimeout = 10.0;

  /// The identity a round acts under: the session opens the directory, the
  /// credentials ride every RFB and reserve (§2.2).
  struct Principal {
    SessionId session;
    UserId user;
    std::string username;
    std::string password;
  };

  /// Where one request is in the two-phase award handshake.
  enum class AwardPhase { kNone, kReserving, kCommitting };

  /// Per-request round state. The derived entity sets the terms (contract
  /// through notify) and keeps the Round inside its own per-request record.
  struct Round {
    qos::QosContract contract;
    std::shared_ptr<const market::BidEvaluator> evaluator;
    /// Barter/home-cluster preference (§5.5.3): a viable bid from this
    /// cluster wins before prices elsewhere are compared.
    std::optional<ClusterId> home;
    /// Who hears the awarded job's completion and eviction notices, and
    /// under which request id; invalid = this entity (CommitRequest::notify).
    EntityId notify;
    RequestId notify_request;
    SpanId root;  // the kSubmission span the round's spans hang off

    RetryState dir_retry;
    bool awaiting_directory = false;  // dedup late/duplicate directory replies
    std::optional<proto::PriceBand> regulation;  // from the directory reply

    std::vector<market::Bid> bids;  // every reply, declined ones included
    std::size_t expected_bids = 0;  // one per server the round RFB'd
    bool evaluated = false;
    /// Offers (non-declined bids) at the last evaluation.
    std::size_t offered = 0;
    sim::EventHandle bid_timer;
    std::vector<BidId> refused;  // bids of daemons that refused or went silent
    SpanId rfb;

    AwardPhase phase = AwardPhase::kNone;
    BidId winner_bid;
    EntityId winner_daemon;
    ClusterId winner_cluster;
    double promised_completion = 0.0;
    ReservationId reservation;
    RetryState award_retry;
    SpanId award;
  };

  /// Attaches to the network. The derived constructor calls
  /// register_retry_counters() where its metric registration order wants
  /// them.
  MarketRound(std::string name, sim::SimContext& ctx, EntityId central,
              RetryPolicy retry);

  void register_retry_counters();

  /// Start (or restart) the round at the directory lookup.
  void request_directory(RequestId request);
  /// Forget a round's bids and award so request_directory() can run a fresh
  /// one; the round's terms stay.
  void reset_round(Round& round);

  /// Timeout bookkeeping shared by every exchange: count and trace the
  /// timeout, then either count and trace one more attempt (returns true:
  /// resend) or the exhausted schedule (returns false: give up).
  bool retry_after_timeout(RetryState& state, sim::MessageKind kind, EntityId peer,
                           RequestId request, BidId bid = {});
  void record_retry(RequestId request, int attempt);

  EntityId central_;
  RetryPolicy retry_;

  // Grid-wide registry instruments (shared by every client and broker).
  obs::Counter* retry_attempts_ctr_ = nullptr;
  obs::Counter* retry_timeouts_ctr_ = nullptr;
  obs::Counter* retry_exhausted_ctr_ = nullptr;

 private:
  // --- hooks -------------------------------------------------------------
  /// The round of `request`, or null when the request is gone.
  virtual Round* find_round(RequestId request) = 0;
  virtual const Principal& principal(const Round& round) const = 0;
  /// A non-declined bid arrived in time for evaluation.
  virtual void on_offer(const Round& /*round*/) {}
  /// The evaluation picked `winner`; the reserve goes out next.
  virtual void on_selected(const Round& /*round*/, const market::Bid& /*winner*/) {}
  /// The commit was confirmed: the job runs on ack.from.
  virtual void on_awarded(RequestId request, Round& round,
                          const proto::AwardAck& ack) = 0;
  /// The round ended without a placement.
  virtual void on_round_failed(RequestId request, proto::SubmitStatus status) = 0;

  // --- steps -------------------------------------------------------------
  void on_directory_timeout(RequestId request);
  void handle_directory(const proto::DirectoryReply& msg);
  void handle_bid(const proto::BidReply& msg);
  void evaluate(RequestId request);
  void send_reserve(RequestId request);
  void send_commit(RequestId request);
  void on_award_timeout(RequestId request);
  void handle_reserve_reply(const proto::ReserveReply& msg);
  void handle_award_ack(const proto::AwardAck& msg);
  /// The winner's daemon refused or stayed silent: mask its bids and award
  /// the next-best bid, or end the round.
  void give_up_on_winner(RequestId request);
  void record_timeout(sim::MessageKind kind, EntityId peer);

  std::uint64_t regulated_out_ = 0;
};

}  // namespace faucets

// Wire protocol of the Faucets system (§2): the messages exchanged between
// Faucets Client (FC), Central Server (FS), Faucets Daemons (FD) and the
// AppSpector (AS). In the real system these travel over TCP; here they ride
// the simulated network, with sizes approximating the real payloads so the
// bandwidth model is meaningful.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/machine.hpp"
#include "src/market/bid.hpp"
#include "src/market/price_history.hpp"
#include "src/qos/contract.hpp"
#include "src/sim/entity.hpp"

namespace faucets::proto {

// ---------------------------------------------------------------- FC <-> FS

struct LoginRequest final : sim::Message {
  std::string username;
  std::string password;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kLogin;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

struct LoginReply final : sim::Message {
  bool ok = false;
  SessionId session;
  UserId user;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kLoginAck;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// One directory row: enough for the client to contact the daemon and for
/// static filtering to have already happened server-side.
struct ServerInfo {
  ClusterId cluster;
  EntityId daemon;
  std::string name;
  int total_procs = 0;
  double memory_per_proc_mb = 0.0;
  double speed_factor = 1.0;
};

struct DirectoryRequest final : sim::Message {
  RequestId request;
  SessionId session;
  qos::QosContract contract;  // the FS filters servers against it (§5.1)
  static constexpr sim::MessageKind kKind = sim::MessageKind::kDirectoryRequest;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 1024; }
};

/// Market regulation (§5.5.1): the recent "normal" unit price and the
/// allowed multiplicative band around it. Carried as std::optional in the
/// directory reply — absent means no regulation in force (replacing the old
/// `band <= 0` sentinel encoding).
struct PriceBand {
  double normal_unit_price = 0.0;
  double band = 1.0;
};

struct DirectoryReply final : sim::Message {
  RequestId request;
  std::vector<ServerInfo> servers;
  std::optional<PriceBand> regulation;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kDirectoryReply;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return 128 + servers.size() * 96;
  }
};

// ---------------------------------------------------------------- FC <-> FD

struct RequestForBids final : sim::Message {
  RequestId request;
  std::string username;  // §2.2: credentials embedded in every message
  std::string password;
  /// One immutable contract shared by every RFB of a round's broadcast and
  /// by the bids the daemons keep for it; never null on the wire.
  std::shared_ptr<const qos::QosContract> contract;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kRequestForBids;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 1024; }
};

struct BidReply final : sim::Message {
  RequestId request;
  market::Bid bid;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kBid;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// Answer to a commit (§5.3): the daemon either confirms — becoming
/// contractually bound — or refuses because its state changed since the bid.
struct AwardAck final : sim::Message {
  RequestId request;
  bool accepted = false;
  JobId job;          // valid when accepted
  double price = 0.0; // final contract price
  std::string reason; // when refused
  static constexpr sim::MessageKind kKind = sim::MessageKind::kAwardAck;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// First phase of the deferred two-phase award (§5.2 future work): the
/// winner asks the daemon to reserve capacity for the winning bid before
/// committing. The daemon answers with a ReserveReply carrying a lease; if
/// no CommitRequest arrives before the lease expires, the reservation is
/// released and the capacity returns to the market.
struct ReserveRequest final : sim::Message {
  RequestId request;
  BidId bid;
  std::string username;
  std::string password;
  UserId user;
  qos::QosContract contract;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kReserve;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 1024; }
};

struct ReserveReply final : sim::Message {
  RequestId request;
  bool accepted = false;
  ReservationId reservation;  // valid when accepted
  double price = 0.0;         // the price the commit will settle at
  double lease_until = 0.0;   // sim time the daemon holds the capacity
  std::string reason;         // when refused
  static constexpr sim::MessageKind kKind = sim::MessageKind::kReserveAck;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// Second phase: confirm (commit=true) turns the reservation into a running
/// job and the daemon answers with the usual AwardAck; abort (commit=false)
/// releases the lease immediately with no reply.
struct CommitRequest final : sim::Message {
  RequestId request;
  ReservationId reservation;
  bool commit = true;
  /// When a broker agent awards on a client's behalf (§5.3), `notify` is
  /// the client entity that receives completion/eviction notices and
  /// `notify_request` the id those notices must carry. Invalid = the
  /// sender itself (direct submission).
  EntityId notify;
  RequestId notify_request;
  /// Causal link for observability: the awarder's award span, which the
  /// daemon hands to the CM so the job's queue/run spans parent correctly.
  SpanId span;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kCommit;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// Input file upload FC -> FD ("the client uploads the input files to the
/// chosen FD and the FD takes over the job"). Size drives the bandwidth
/// model.
struct UploadFiles final : sim::Message {
  RequestId request;
  JobId job;
  double megabytes = 0.0;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kUpload;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return static_cast<std::size_t>(megabytes * 1e6) + 256;
  }
};

/// The Compute Server is going down (§3): the job was checkpointed and the
/// client must move it to another machine. `completed_work` lets the client
/// resubmit only the remainder.
struct JobEvicted final : sim::Message {
  JobId job;
  RequestId request;
  double completed_work = 0.0;
  double checkpoint_mb = 0.0;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kEvicted;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return static_cast<std::size_t>(checkpoint_mb * 1e6) + 256;
  }
};

struct JobCompleteNotice final : sim::Message {
  JobId job;
  RequestId request;
  double finish_time = 0.0;
  double price_charged = 0.0;
  double output_mb = 0.0;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kJobDone;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return static_cast<std::size_t>(output_mb * 1e6) + 256;
  }
};

// ------------------------------------------------------------ FC <-> Broker

/// User-specific selection criteria a client agent applies on the client's
/// behalf (§5.3: "The client agents simply specify user-specific selection
/// criteria to evaluation").
enum class SelectionCriteria { kLeastCost, kEarliestCompletion, kSurplus };

/// Where a submission stands. A broker's SubmitJobReply carries kPlaced or
/// the failure that ended its market round; the client records the same
/// values in its SubmissionOutcome.
enum class SubmitStatus {
  kPending,
  kPlaced,
  kNoServers,
  kNoBids,
  kAllRefused,
  kCompleted,
  kTimedOut,  // a retry schedule was exhausted (partition / crash)
};

/// One-shot submission through a broker agent: the broker performs the
/// directory lookup, the request-for-bids fan-out, the evaluation, and the
/// two-phase award, shielding the client from the flood of bids (§5.3).
struct SubmitJobRequest final : sim::Message {
  RequestId request;  // client-side id; echoed in the reply and notices
  /// Distinguishes a retransmission (same attempt, reply was lost -> the
  /// broker re-sends its cached answer) from a genuine resubmission after an
  /// eviction or a fresh bidding round (higher attempt -> new market cycle).
  std::uint32_t attempt = 0;
  SessionId session;
  std::string username;
  std::string password;
  UserId user;
  SelectionCriteria criteria = SelectionCriteria::kLeastCost;
  /// The client's home cluster when it prefers home bids (§5.5.3).
  std::optional<ClusterId> home;
  qos::QosContract contract;
  /// Causal link for observability: the client's root submission span, so
  /// the broker's RFB/award spans hang off the right tree.
  SpanId span;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kSubmit;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 1280; }
};

struct SubmitJobReply final : sim::Message {
  RequestId request;
  SubmitStatus status = SubmitStatus::kPending;
  ClusterId cluster;
  EntityId daemon;  // for the input upload
  JobId job;
  double price = 0.0;
  double promised_completion = 0.0;
  std::size_t bids_offered = 0;  // non-declined bids at the last evaluation
  static constexpr sim::MessageKind kKind = sim::MessageKind::kSubmitAck;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

// ---------------------------------------------------------------- FS <-> FS

/// Federation (§5.1 future work: "the broadcast itself will be handled by
/// a distributed Faucets system"). A regional Central Server answers its
/// own clients from its own directory plus what its peer regions report.
/// Peers filter on static/dynamic properties only; user-specific rules
/// (home cluster, barter credits) apply in the user's home region.
struct PeerDirectoryRequest final : sim::Message {
  RequestId request;
  qos::QosContract contract;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kPeerDirectoryRequest;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 1024; }
};

struct PeerDirectoryReply final : sim::Message {
  RequestId request;
  std::vector<ServerInfo> servers;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kPeerDirectoryReply;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return 128 + servers.size() * 96;
  }
};

// ---------------------------------------------------------------- FD <-> FS

struct RegisterDaemon final : sim::Message {
  ClusterId cluster;
  cluster::MachineSpec machine;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kRegisterDaemon;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return 512; }
};

struct RegisterAck final : sim::Message {
  bool ok = false;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kRegisterAck;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// FS polls FDs periodically to refresh the directory's dynamic state (§2).
struct PollRequest final : sim::Message {
  static constexpr sim::MessageKind kKind = sim::MessageKind::kPoll;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

struct PollReply final : sim::Message {
  ClusterId cluster;
  int busy_procs = 0;
  int total_procs = 0;
  std::size_t queued_jobs = 0;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kPollReply;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// §2.2: the FD has no account data; it verifies each client's credentials
/// with the Central Server.
struct AuthVerifyRequest final : sim::Message {
  RequestId request;
  std::string username;
  std::string password;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kAuthRequest;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

struct AuthVerifyReply final : sim::Message {
  RequestId request;
  bool ok = false;
  UserId user;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kAuthReply;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

/// Settled-contract report feeding the price history (§5.2.1) and, in
/// barter mode, the credit ledger (§5.5.3).
struct ContractSettled final : sim::Message {
  market::ContractRecord record;
  UserId user;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kSettled;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

// ---------------------------------------------------------------- FD <-> AS

struct RegisterJobMonitor final : sim::Message {
  JobId job;
  ClusterId cluster;
  UserId user;
  std::string application;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kMonitorRegister;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

struct JobStatusUpdate final : sim::Message {
  JobId job;
  ClusterId cluster;
  std::string state;       // running / completed / ...
  int procs = 0;
  double progress = 0.0;   // fraction of work done
  double utilization = 0.0;  // cluster-level utilization for the generic pane
  std::string display;     // application-specific display line
  static constexpr sim::MessageKind kKind = sim::MessageKind::kMonitorUpdate;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

// ---------------------------------------------------------------- FC <-> AS

struct WatchJob final : sim::Message {
  JobId job;
  ClusterId cluster;
  SessionId session;
  static constexpr sim::MessageKind kKind = sim::MessageKind::kWatch;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
};

struct WatchReply final : sim::Message {
  JobId job;
  bool known = false;
  std::string state;
  int procs = 0;
  double progress = 0.0;
  std::vector<std::string> display_buffer;  // buffered output for late joiners
  static constexpr sim::MessageKind kKind = sim::MessageKind::kWatchReply;
  [[nodiscard]] sim::MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override {
    return 256 + display_buffer.size() * 80;
  }
};

}  // namespace faucets::proto

// Typed trace events and the bounded ring buffer they live in.
//
// The old TraceRecorder stored two heap-allocated std::strings per record,
// which undercut the zero-allocation event engine: a single record() on the
// hot path cost more than scheduling the event it described. This layer
// replaces it with a fixed TraceEventKind enum, a small POD payload union,
// and a power-of-two ring: record() is a struct copy into preallocated
// storage, wraparound eviction is O(1), and AppSpector/tests/exporters read
// events back oldest-first without reparsing strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/ids.hpp"

namespace faucets::obs {

/// Everything the grid traces, grouped by payload family (see payload_of).
enum class TraceEventKind : std::uint8_t {
  // Job lifecycle on a Compute Server (JobPayload).
  kJobAccepted = 0,
  kJobRejected,
  kJobStarted,
  kJobResumed,
  kJobShrunk,
  kJobExpanded,
  kJobVacated,
  kJobCompleted,
  kJobEvicted,
  kJobFailed,
  // Market protocol (MarketPayload).
  kRfbIssued,
  kBidIssued,
  kBidDeclined,
  kAwardConfirmed,
  kAwardRefused,
  kJobPlaced,
  kJobUnplaced,
  // Grid-level recovery (MarketPayload: the client-side request).
  kJobMigrated,
  kWatchdogRestart,
  // Two-phase award: reserve -> commit/abort with a daemon-side lease
  // (MarketPayload; kLeaseExpired carries the reservation id as `request`).
  kAwardReserved,
  kAwardAborted,
  kLeaseExpired,
  // Retry/timeout state machines (MarketPayload: `price` is the attempt
  // number that timed out or gave up).
  kRetryAttempt,
  kRetryExhausted,
  // Network fabric (NetPayload).
  kNetDrop,
  // Authentication at the Central Server (AuthPayload).
  kAuthOk,
  kAuthDenied,
};

inline constexpr std::size_t kTraceEventKindCount =
    static_cast<std::size_t>(TraceEventKind::kAuthDenied) + 1;

/// Which member of TraceEvent::Payload a kind carries.
enum class TracePayload : std::uint8_t { kJob, kMarket, kNet, kAuth };

[[nodiscard]] constexpr TracePayload payload_of(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kJobAccepted:
    case TraceEventKind::kJobRejected:
    case TraceEventKind::kJobStarted:
    case TraceEventKind::kJobResumed:
    case TraceEventKind::kJobShrunk:
    case TraceEventKind::kJobExpanded:
    case TraceEventKind::kJobVacated:
    case TraceEventKind::kJobCompleted:
    case TraceEventKind::kJobEvicted:
    case TraceEventKind::kJobFailed:
      return TracePayload::kJob;
    case TraceEventKind::kRfbIssued:
    case TraceEventKind::kBidIssued:
    case TraceEventKind::kBidDeclined:
    case TraceEventKind::kAwardConfirmed:
    case TraceEventKind::kAwardRefused:
    case TraceEventKind::kJobPlaced:
    case TraceEventKind::kJobUnplaced:
    case TraceEventKind::kJobMigrated:
    case TraceEventKind::kWatchdogRestart:
    case TraceEventKind::kAwardReserved:
    case TraceEventKind::kAwardAborted:
    case TraceEventKind::kLeaseExpired:
    case TraceEventKind::kRetryAttempt:
    case TraceEventKind::kRetryExhausted:
      return TracePayload::kMarket;
    case TraceEventKind::kNetDrop:
      return TracePayload::kNet;
    case TraceEventKind::kAuthOk:
    case TraceEventKind::kAuthDenied:
      return TracePayload::kAuth;
  }
  return TracePayload::kJob;
}

/// Stable wire name of a kind, used by the JSONL exporter and in tests.
[[nodiscard]] constexpr std::string_view to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kJobAccepted: return "JOB_ACCEPTED";
    case TraceEventKind::kJobRejected: return "JOB_REJECTED";
    case TraceEventKind::kJobStarted: return "JOB_STARTED";
    case TraceEventKind::kJobResumed: return "JOB_RESUMED";
    case TraceEventKind::kJobShrunk: return "JOB_SHRUNK";
    case TraceEventKind::kJobExpanded: return "JOB_EXPANDED";
    case TraceEventKind::kJobVacated: return "JOB_VACATED";
    case TraceEventKind::kJobCompleted: return "JOB_COMPLETED";
    case TraceEventKind::kJobEvicted: return "JOB_EVICTED";
    case TraceEventKind::kJobFailed: return "JOB_FAILED";
    case TraceEventKind::kRfbIssued: return "RFB_ISSUED";
    case TraceEventKind::kBidIssued: return "BID_ISSUED";
    case TraceEventKind::kBidDeclined: return "BID_DECLINED";
    case TraceEventKind::kAwardConfirmed: return "AWARD_CONFIRMED";
    case TraceEventKind::kAwardRefused: return "AWARD_REFUSED";
    case TraceEventKind::kJobPlaced: return "JOB_PLACED";
    case TraceEventKind::kJobUnplaced: return "JOB_UNPLACED";
    case TraceEventKind::kJobMigrated: return "JOB_MIGRATED";
    case TraceEventKind::kWatchdogRestart: return "WATCHDOG_RESTART";
    case TraceEventKind::kAwardReserved: return "AWARD_RESERVED";
    case TraceEventKind::kAwardAborted: return "AWARD_ABORTED";
    case TraceEventKind::kLeaseExpired: return "LEASE_EXPIRED";
    case TraceEventKind::kRetryAttempt: return "RETRY_ATTEMPT";
    case TraceEventKind::kRetryExhausted: return "RETRY_EXHAUSTED";
    case TraceEventKind::kNetDrop: return "NET_DROP";
    case TraceEventKind::kAuthOk: return "AUTH_OK";
    case TraceEventKind::kAuthDenied: return "AUTH_DENIED";
  }
  return "?";
}

/// Why the network dropped a message (NetPayload::reason). The first two are
/// lifecycle drops (an endpoint was gone); the rest are injected or inferred
/// faults, so exports can tell chaos-testing losses from ordinary shutdowns.
enum class DropReason : std::uint8_t {
  kSenderDetached = 0,
  kReceiverDetached = 1,
  kFaultInjected = 2,  // seeded random loss from the fault injector
  kPartitioned = 3,    // an endpoint was inside a partition window
  kTimeout = 4,        // a sender gave up waiting and retried/aborted
};

inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kTimeout) + 1;

[[nodiscard]] constexpr std::string_view to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kSenderDetached: return "sender_detached";
    case DropReason::kReceiverDetached: return "receiver_detached";
    case DropReason::kFaultInjected: return "fault_injected";
    case DropReason::kPartitioned: return "partitioned";
    case DropReason::kTimeout: return "timeout";
  }
  return "?";
}

/// One trace record: what happened, to whom, when. Trivially copyable —
/// recording is a struct copy into the ring, never an allocation.
struct TraceEvent {
  /// Payload for job lifecycle events on one Compute Server.
  struct JobPayload {
    JobId job;
    UserId user;
    ClusterId cluster;
    std::int32_t procs = 0;
  };
  /// Payload for the bid/award protocol and client-side placement events.
  struct MarketPayload {
    RequestId request;
    BidId bid;
    double price = 0.0;
  };
  /// Payload for network drops. `message_kind` is the sim::MessageKind value
  /// of the dropped message (kept as a raw byte so this header does not
  /// depend on the sim layer).
  struct NetPayload {
    EntityId peer;  // the other end of the failed delivery
    std::uint8_t message_kind = 0;
    DropReason reason = DropReason::kSenderDetached;
  };
  /// Payload for credential checks at the Central Server.
  struct AuthPayload {
    UserId user;
    RequestId request;
  };
  union Payload {
    JobPayload job{};
    MarketPayload market;
    NetPayload net;
    AuthPayload auth;
  };

  double time = 0.0;
  EntityId entity;  // the emitting entity (or cluster scope for CM events)
  TraceEventKind kind = TraceEventKind::kJobAccepted;
  Payload payload{};
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events must copy into the ring without allocating");

// ------------------------------------------------------------ constructors

[[nodiscard]] inline TraceEvent job_event(double time, EntityId entity,
                                          TraceEventKind kind, ClusterId cluster,
                                          JobId job, UserId user, int procs) {
  TraceEvent ev;
  ev.time = time;
  ev.entity = entity;
  ev.kind = kind;
  ev.payload.job = {job, user, cluster, static_cast<std::int32_t>(procs)};
  return ev;
}

[[nodiscard]] inline TraceEvent market_event(double time, EntityId entity,
                                             TraceEventKind kind, RequestId request,
                                             BidId bid, double price) {
  TraceEvent ev;
  ev.time = time;
  ev.entity = entity;
  ev.kind = kind;
  ev.payload.market = {request, bid, price};
  return ev;
}

[[nodiscard]] inline TraceEvent net_event(double time, EntityId entity,
                                          EntityId peer, std::uint8_t message_kind,
                                          DropReason reason) {
  TraceEvent ev;
  ev.time = time;
  ev.entity = entity;
  ev.kind = TraceEventKind::kNetDrop;
  ev.payload.net = {peer, message_kind, reason};
  return ev;
}

[[nodiscard]] inline TraceEvent auth_event(double time, EntityId entity,
                                           TraceEventKind kind, UserId user,
                                           RequestId request) {
  TraceEvent ev;
  ev.time = time;
  ev.entity = entity;
  ev.kind = kind;
  ev.payload.auth = {user, request};
  return ev;
}

// ------------------------------------------------------------------- buffer

/// Bounded trace store: a power-of-two ring. When full, each new record
/// overwrites the oldest one — O(1), unlike the old recorder's O(n)
/// vector::erase compaction — mirroring AppSpector's display buffer that
/// keeps recent output available to late-joining watchers. Every record is
/// stamped with the engine clock when it is made, and the clock never runs
/// back, so oldest-first is time order: exporters read the ring in place.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 1).
  explicit TraceBuffer(std::size_t capacity)
      : ring_(round_up_pow2(capacity)), mask_(ring_.size() - 1) {}

  /// Record one event. Never allocates: the ring is preallocated and the
  /// event is trivially copyable.
  void record(const TraceEvent& ev) noexcept {
    ring_[static_cast<std::size_t>(head_) & mask_] = ev;
    ++head_;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_) : ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events overwritten because the ring was full, oldest-first semantics.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return head_ < ring_.size() ? 0 : head_ - ring_.size();
  }
  /// Every record() ever, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return head_; }

  /// i-th surviving event, oldest first (i in [0, size())).
  [[nodiscard]] const TraceEvent& at(std::size_t i) const noexcept {
    return ring_[static_cast<std::size_t>(head_ - size() + i) & mask_];
  }

  /// Visit surviving events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) fn(at(i));
  }

 private:
  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<TraceEvent> ring_;  // preallocated, size is a power of two
  std::size_t mask_;
  std::uint64_t head_ = 0;  // total records ever; write index is head_ & mask_
};

/// Another name for the ring, kept while bench_e2e.cpp uses it (ROADMAP
/// item 6).
using TraceView = TraceBuffer;

}  // namespace faucets::obs

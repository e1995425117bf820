// Entity and Message: the object model of the simulated grid.
//
// Each component of the Faucets architecture (Central Server, Faucets
// Daemons, clients, AppSpector) is an Entity registered with the Network.
// An entity holds one pointer into the simulation, its SimContext
// (context.hpp), and reaches the engine, the network and the recorders
// through it. Entities communicate exclusively by messages, mirroring the
// socket protocol of the real system. Messages carry a MessageKind
// discriminant so receivers dispatch with a switch instead of a
// dynamic_cast chain, and the network keeps per-kind traffic counters.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <string_view>

#include "src/sim/engine.hpp"
#include "src/util/ids.hpp"

namespace faucets::sim {

/// Discriminant for every concrete protocol message. The names mirror the
/// wire tags of the real Faucets socket protocol; `kCustom` is reserved for
/// ad-hoc messages in tests and examples.
enum class MessageKind : std::uint8_t {
  kLogin = 0,
  kLoginAck,
  kDirectoryRequest,
  kDirectoryReply,
  kRequestForBids,
  kBid,
  kAward,  // reserved: the one-phase award is gone (awards reserve, then commit)
  kAwardAck,
  kReserve,
  kReserveAck,
  kCommit,
  kUpload,
  kEvicted,
  kJobDone,
  kSubmit,
  kSubmitAck,
  // Reserved and never sent (directory queries between Central Servers).
  // They keep their slots for the same reason as kPeerRfb below.
  kPeerDirectoryRequest,
  kPeerDirectoryReply,
  kRegisterDaemon,
  kRegisterAck,
  kPoll,
  kPollReply,
  kAuthRequest,
  kAuthReply,
  kSettled,
  kMonitorRegister,
  kMonitorUpdate,
  kWatch,
  kWatchReply,
  kCustom,
  // Reserved and never sent (broker-to-broker RFB forwarding). They keep
  // their slots so per-kind counter arrays (the report's
  // messages_*_by_kind) and raw kind bytes in traces keep their layout.
  kPeerRfb,
  kPeerRfbReply,
};

/// Number of distinct kinds, for per-kind counter arrays.
inline constexpr std::size_t kMessageKindCount =
    static_cast<std::size_t>(MessageKind::kPeerRfbReply) + 1;

/// Wire tag of a kind ("RFB", "BID", ...), for traces and reports.
[[nodiscard]] constexpr std::string_view to_string(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kLogin: return "LOGIN";
    case MessageKind::kLoginAck: return "LOGIN_ACK";
    case MessageKind::kDirectoryRequest: return "DIR_REQ";
    case MessageKind::kDirectoryReply: return "DIR_ACK";
    case MessageKind::kRequestForBids: return "RFB";
    case MessageKind::kBid: return "BID";
    case MessageKind::kAward: return "AWARD";
    case MessageKind::kAwardAck: return "AWARD_ACK";
    case MessageKind::kReserve: return "RESERVE";
    case MessageKind::kReserveAck: return "RESERVE_ACK";
    case MessageKind::kCommit: return "COMMIT";
    case MessageKind::kUpload: return "UPLOAD";
    case MessageKind::kEvicted: return "EVICTED";
    case MessageKind::kJobDone: return "JOB_DONE";
    case MessageKind::kSubmit: return "SUBMIT";
    case MessageKind::kSubmitAck: return "SUBMIT_ACK";
    case MessageKind::kPeerDirectoryRequest: return "PEER_DIR";
    case MessageKind::kPeerDirectoryReply: return "PEER_DIR_ACK";
    case MessageKind::kRegisterDaemon: return "REGISTER";
    case MessageKind::kRegisterAck: return "REGISTER_ACK";
    case MessageKind::kPoll: return "POLL";
    case MessageKind::kPollReply: return "POLL_ACK";
    case MessageKind::kAuthRequest: return "AUTH_REQ";
    case MessageKind::kAuthReply: return "AUTH_ACK";
    case MessageKind::kSettled: return "SETTLED";
    case MessageKind::kMonitorRegister: return "AS_REG";
    case MessageKind::kMonitorUpdate: return "AS_UPDATE";
    case MessageKind::kWatch: return "WATCH";
    case MessageKind::kWatchReply: return "WATCH_ACK";
    case MessageKind::kCustom: return "CUSTOM";
    case MessageKind::kPeerRfb: return "PEER_RFB";
    case MessageKind::kPeerRfbReply: return "PEER_RFB_ACK";
  }
  return "?";
}

/// Base class for everything sent over the simulated network. Concrete
/// protocol messages (request-for-bids, bids, awards, ...) derive from this,
/// expose `static constexpr MessageKind kKind`, and are dispatched by kind
/// in each entity's on_message.
struct Message {
  virtual ~Message() = default;

  /// The discriminant used for dispatch and per-kind accounting.
  [[nodiscard]] virtual MessageKind kind() const noexcept = 0;

  /// Human-readable message kind for traces ("RFB", "BID", ...).
  [[nodiscard]] std::string_view kind_name() const noexcept { return to_string(kind()); }

  /// Payload size in bytes, used by the network's bandwidth model. The
  /// default approximates a small control message.
  [[nodiscard]] virtual std::size_t size_bytes() const noexcept { return 256; }

  EntityId from;
  EntityId to;
  SimTime sent_at = 0.0;
};

/// Checked downcast after a kind test: the caller has already switched on
/// `msg.kind()`, so the static type is known.
template <typename T>
[[nodiscard]] const T& message_cast(const Message& msg) noexcept {
  assert(msg.kind() == T::kKind && "message_cast: kind does not match target type");
  return static_cast<const T&>(msg);
}

using MessagePtr = std::unique_ptr<Message>;

class Network;
class SimContext;

/// A simulated process: owns no thread, just reacts to delivered messages
/// and timers scheduled on the shared Engine. Its one pointer into the
/// simulation is its SimContext; engine(), now() and network() read
/// through it.
class Entity {
 public:
  /// This constructor and the accessors that read the context are defined
  /// in context.hpp, next to SimContext.
  Entity(std::string name, SimContext& ctx);
  virtual ~Entity() = default;
  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  [[nodiscard]] EntityId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] SimContext& context() const noexcept { return *ctx_; }
  [[nodiscard]] inline Engine& engine() const noexcept;
  [[nodiscard]] inline SimTime now() const noexcept;

  /// Called by the Network when a message addressed to this entity arrives.
  virtual void on_message(const Message& msg) = 0;

  /// Coarse category byte for host-time profiler attribution (the value
  /// space is obs::ProfClass; kept as a raw byte so sim stays free of obs
  /// profiler types). Defaults to 0 = "other"; GridSystem tags the entities
  /// it stands up when profiling is on.
  [[nodiscard]] std::uint8_t profile_class() const noexcept {
    return prof_class_;
  }
  void set_profile_class(std::uint8_t c) noexcept { prof_class_ = c; }

 protected:
  [[nodiscard]] inline Network& network() const noexcept;

 private:
  friend class Network;
  std::string name_;
  SimContext* ctx_;
  EntityId id_;
  std::uint8_t prof_class_ = 0;
};

}  // namespace faucets::sim

// Protocol message metadata: kinds are stable (they appear in traces and
// logs) and size models scale with payloads (they drive the bandwidth
// model, so getting them wrong skews every timing experiment).
#include <gtest/gtest.h>

#include "src/faucets/protocol.hpp"

namespace faucets::proto {
namespace {

TEST(Protocol, KindsAreStable) {
  EXPECT_EQ(LoginRequest{}.kind_name(), "LOGIN");
  EXPECT_EQ(LoginReply{}.kind_name(), "LOGIN_ACK");
  EXPECT_EQ(DirectoryRequest{}.kind_name(), "DIR_REQ");
  EXPECT_EQ(DirectoryReply{}.kind_name(), "DIR_ACK");
  EXPECT_EQ(RequestForBids{}.kind_name(), "RFB");
  EXPECT_EQ(BidReply{}.kind_name(), "BID");
  EXPECT_EQ(AwardAck{}.kind_name(), "AWARD_ACK");
  EXPECT_EQ(ReserveRequest{}.kind_name(), "RESERVE");
  EXPECT_EQ(ReserveReply{}.kind_name(), "RESERVE_ACK");
  EXPECT_EQ(CommitRequest{}.kind_name(), "COMMIT");
  // Reserved slot of the removed one-phase award: its name stays in the
  // report's per-kind arrays.
  EXPECT_EQ(sim::to_string(sim::MessageKind::kAward), "AWARD");
  EXPECT_EQ(UploadFiles{}.kind_name(), "UPLOAD");
  EXPECT_EQ(JobEvicted{}.kind_name(), "EVICTED");
  EXPECT_EQ(JobCompleteNotice{}.kind_name(), "JOB_DONE");
  EXPECT_EQ(RegisterDaemon{}.kind_name(), "REGISTER");
  EXPECT_EQ(PollRequest{}.kind_name(), "POLL");
  EXPECT_EQ(PollReply{}.kind_name(), "POLL_ACK");
  EXPECT_EQ(AuthVerifyRequest{}.kind_name(), "AUTH_REQ");
  EXPECT_EQ(AuthVerifyReply{}.kind_name(), "AUTH_ACK");
  EXPECT_EQ(ContractSettled{}.kind_name(), "SETTLED");
  EXPECT_EQ(RegisterJobMonitor{}.kind_name(), "AS_REG");
  EXPECT_EQ(JobStatusUpdate{}.kind_name(), "AS_UPDATE");
  EXPECT_EQ(WatchJob{}.kind_name(), "WATCH");
  EXPECT_EQ(WatchReply{}.kind_name(), "WATCH_ACK");
  EXPECT_EQ(SubmitJobRequest{}.kind_name(), "SUBMIT");
  EXPECT_EQ(SubmitJobReply{}.kind_name(), "SUBMIT_ACK");
}

TEST(Protocol, TypedKindsMatchStaticKind) {
  // message_cast and the dispatch switches rely on kind() always agreeing
  // with the static kKind tag.
  EXPECT_EQ(LoginRequest{}.kind(), LoginRequest::kKind);
  EXPECT_EQ(BidReply{}.kind(), BidReply::kKind);
  EXPECT_EQ(CommitRequest{}.kind(), CommitRequest::kKind);
  EXPECT_EQ(WatchReply{}.kind(), WatchReply::kKind);
  EXPECT_EQ(SubmitJobRequest{}.kind(), sim::MessageKind::kSubmit);
  EXPECT_EQ(JobEvicted{}.kind(), sim::MessageKind::kEvicted);
}

TEST(Protocol, UploadSizeScalesWithMegabytes) {
  UploadFiles small;
  small.megabytes = 1.0;
  UploadFiles big;
  big.megabytes = 100.0;
  EXPECT_GT(big.size_bytes(), small.size_bytes());
  EXPECT_NEAR(static_cast<double>(big.size_bytes()), 100e6, 1e3);
}

TEST(Protocol, CompletionCarriesOutputBytes) {
  JobCompleteNotice notice;
  notice.output_mb = 50.0;
  EXPECT_NEAR(static_cast<double>(notice.size_bytes()), 50e6, 1e3);
}

TEST(Protocol, DirectoryReplyScalesWithServerCount) {
  DirectoryReply empty;
  DirectoryReply populated;
  populated.servers.resize(100);
  EXPECT_GT(populated.size_bytes(), empty.size_bytes() + 100 * 64);
}

TEST(Protocol, EvictionCarriesCheckpointImage) {
  JobEvicted evicted;
  evicted.checkpoint_mb = 256.0;
  EXPECT_GT(evicted.size_bytes(), static_cast<std::size_t>(2.5e8));
}

TEST(Protocol, WatchReplyScalesWithBuffer) {
  WatchReply reply;
  const auto before = reply.size_bytes();
  reply.display_buffer.assign(64, "line");
  EXPECT_GT(reply.size_bytes(), before);
}

TEST(Protocol, ControlMessagesAreSmall) {
  // Control-plane messages must stay well under a jumbo frame so the
  // latency term dominates, as in the real system.
  EXPECT_LE(PollRequest{}.size_bytes(), 1024u);
  EXPECT_LE(BidReply{}.size_bytes(), 1024u);
  EXPECT_LE(AwardAck{}.size_bytes(), 1024u);
  EXPECT_LE(LoginRequest{}.size_bytes(), 1024u);
}

}  // namespace
}  // namespace faucets::proto

// AppSpector unit tests (§2): registration, status updates, buffered
// display data, multiple simultaneous watchers.
#include <gtest/gtest.h>

#include "src/faucets/appspector.hpp"
#include "src/sim/context.hpp"

namespace faucets {
namespace {

class WatcherProbe final : public sim::Entity {
 public:
  explicit WatcherProbe(sim::SimContext& ctx)
      : sim::Entity("probe", ctx) {
    network().attach(*this);
  }
  void on_message(const sim::Message& msg) override {
    if (msg.kind() == sim::MessageKind::kWatchReply) {
      replies.push_back(sim::message_cast<proto::WatchReply>(msg));
    }
  }
  void watch(EntityId as, ClusterId cluster, JobId job) {
    auto msg = std::make_unique<proto::WatchJob>();
    msg->cluster = cluster;
    msg->job = job;
    network().send(*this, as, std::move(msg));
  }
  std::vector<proto::WatchReply> replies;

 private:
};

struct Fixture {
  sim::SimContext ctx;
  sim::Engine& engine = ctx.engine();
  sim::Network& network = ctx.network();
  AppSpector as{ctx, /*display_buffer_lines=*/4};
  WatcherProbe probe{ctx};

  void register_job(ClusterId cluster, JobId job) {
    auto msg = std::make_unique<proto::RegisterJobMonitor>();
    msg->cluster = cluster;
    msg->job = job;
    msg->user = UserId{1};
    msg->application = "namd";
    network.send(probe, as.id(), std::move(msg));
  }

  void update(ClusterId cluster, JobId job, const std::string& state, int procs,
              double progress) {
    auto msg = std::make_unique<proto::JobStatusUpdate>();
    msg->cluster = cluster;
    msg->job = job;
    msg->state = state;
    msg->procs = procs;
    msg->progress = progress;
    network.send(probe, as.id(), std::move(msg));
  }
};

TEST(AppSpector, RegistrationCreatesView) {
  Fixture f;
  f.register_job(ClusterId{0}, JobId{1});
  f.engine.run(1.0);
  EXPECT_EQ(f.as.monitored_jobs(), 1u);
  const auto* view = f.as.find(ClusterId{0}, JobId{1});
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->application, "namd");
  EXPECT_EQ(view->state, "registered");
}

TEST(AppSpector, SameJobIdDifferentClustersAreDistinct) {
  Fixture f;
  f.register_job(ClusterId{0}, JobId{1});
  f.register_job(ClusterId{1}, JobId{1});
  f.engine.run(1.0);
  EXPECT_EQ(f.as.monitored_jobs(), 2u);
}

TEST(AppSpector, UpdatesAccumulateInBoundedBuffer) {
  Fixture f;
  f.register_job(ClusterId{0}, JobId{1});
  for (int i = 0; i < 10; ++i) {
    f.update(ClusterId{0}, JobId{1}, "running", 32, i * 0.1);
  }
  f.engine.run(1.0);
  const auto* view = f.as.find(ClusterId{0}, JobId{1});
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->updates, 10u);
  EXPECT_LE(view->display.size(), 4u) << "display buffer is bounded";
  EXPECT_NEAR(view->progress, 0.9, 1e-9);
}

TEST(AppSpector, UpdateForUnknownJobIgnored) {
  Fixture f;
  f.update(ClusterId{0}, JobId{99}, "running", 8, 0.5);
  f.engine.run(1.0);
  EXPECT_EQ(f.as.monitored_jobs(), 0u);
}

TEST(AppSpector, WatcherGetsBufferedDisplay) {
  Fixture f;
  f.register_job(ClusterId{0}, JobId{1});
  f.update(ClusterId{0}, JobId{1}, "running", 32, 0.25);
  f.update(ClusterId{0}, JobId{1}, "running", 32, 0.5);
  f.engine.run(1.0);
  f.probe.watch(f.as.id(), ClusterId{0}, JobId{1});
  f.engine.run(2.0);
  ASSERT_EQ(f.probe.replies.size(), 1u);
  const auto& reply = f.probe.replies[0];
  EXPECT_TRUE(reply.known);
  EXPECT_EQ(reply.state, "running");
  EXPECT_EQ(reply.display_buffer.size(), 2u);
  EXPECT_EQ(f.as.watch_requests(), 1u);
}

TEST(AppSpector, MultipleWatchersServedIndependently) {
  Fixture f;
  WatcherProbe second{f.ctx};
  f.register_job(ClusterId{0}, JobId{1});
  f.update(ClusterId{0}, JobId{1}, "running", 16, 0.1);
  f.engine.run(1.0);
  f.probe.watch(f.as.id(), ClusterId{0}, JobId{1});
  second.watch(f.as.id(), ClusterId{0}, JobId{1});
  f.engine.run(2.0);
  EXPECT_EQ(f.probe.replies.size(), 1u);
  EXPECT_EQ(second.replies.size(), 1u);
  EXPECT_EQ(f.as.watch_requests(), 2u);
}

TEST(AppSpector, TimelineRowsAndTextShareOneCodePath) {
  Fixture f;
  // Build a small lifecycle directly in the span tracker.
  obs::SpanTracker& spans = f.ctx.spans();
  const SpanId root = spans.start_span(obs::SpanKind::kSubmission, 1.0);
  const SpanId q = spans.start_span(obs::SpanKind::kQueue, 2.0, root);
  spans.bind_job(q, ClusterId{0}, JobId{1});
  spans.end_span(q, 4.0);
  const SpanId r = spans.start_span(obs::SpanKind::kRun, 4.0, q);
  spans.set_value(r, 16.0);
  spans.end_span(r, 9.0);

  const auto rows = f.as.job_timeline_rows(ClusterId{0}, JobId{1});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].kind, obs::SpanKind::kSubmission);
  EXPECT_TRUE(rows[0].open());
  EXPECT_EQ(rows[2].kind, obs::SpanKind::kRun);
  EXPECT_DOUBLE_EQ(rows[2].value, 16.0);

  // The text view is exactly the formatted rows, in the same order.
  const auto text = f.as.job_timeline(ClusterId{0}, JobId{1});
  ASSERT_EQ(text.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(text[i], obs::format_timeline_row(rows[i]));
  }
  EXPECT_EQ(text[2], "[4 9) run value=16");
  EXPECT_TRUE(f.as.job_timeline_rows(ClusterId{5}, JobId{5}).empty());
}

TEST(AppSpector, WatchUnknownJobRepliesUnknown) {
  Fixture f;
  f.probe.watch(f.as.id(), ClusterId{3}, JobId{42});
  f.engine.run(1.0);
  ASSERT_EQ(f.probe.replies.size(), 1u);
  EXPECT_FALSE(f.probe.replies[0].known);
}

}  // namespace
}  // namespace faucets

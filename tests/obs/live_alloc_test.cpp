// Zero-allocation guarantee for the live plane's publish path (DESIGN.md
// §15): after the first publish captures the registry schema, steady-state
// snapshot publishes from the simulation thread refresh preallocated value
// arrays in place and must never touch the global heap. Only a registry
// *growth* (new instruments registered mid-run) may allocate, for the
// one-off schema re-capture. Same counting-allocator technique as
// trace_alloc_test.cpp; separate binary so the replaced operators cannot
// perturb other suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "src/obs/live/plane.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::obs::live {
namespace {

using test::allocations;

/// A plane over a fabricated simulation with no server and no ticker (those
/// threads have their own setup allocations); publish() is driven directly
/// the way GridSystem's loops drive it.
struct Fixture {
  MetricsRegistry metrics;
  TraceBuffer trace{256};
  TraceBuffer alerts{64};
  std::uint64_t executed = 0;
  std::unique_ptr<LivePlane> plane;

  Fixture() {
    metrics.counter("faucets_grid_jobs_submitted_total").inc(10);
    metrics.counter("faucets_grid_jobs_completed_total").inc(4);
    metrics.gauge("faucets_test_level").set(1.5);
    metrics.histogram("faucets_test_wait_seconds", {1.0, 10.0, 100.0})
        .observe(2.0);
    LiveConfig config;
    config.serve = false;
    config.progress = false;
    config.publish_interval = 0.0;  // every publish() captures
    LivePlane::Bindings b;
    b.metrics = &metrics;
    b.trace = &trace;
    b.executed = [this] { return executed; };
    b.alert_sink = &alerts;
    b.audit = [](double) {
      Audit a;
      a.submitted = 10;
      a.completed = 4;
      a.open_submissions = 6;
      return a;
    };
    plane = std::make_unique<LivePlane>(config, std::move(b));
  }
};

TEST(LiveAlloc, SteadyStatePublishesAreAllocationFree) {
  Fixture fx;
  // Resolve instruments up front: name lookups build std::string keys, which
  // is exactly the kind of per-publish cost the hot loop must not pay.
  auto& submitted = fx.metrics.counter("faucets_grid_jobs_submitted_total");
  auto& wait = fx.metrics.histogram("faucets_test_wait_seconds", {});
  fx.plane->begin_run();
  fx.plane->publish(0.0);  // first publish: schema capture allocates
  const auto before = allocations();
  for (int i = 1; i <= 10'000; ++i) {
    const auto now = static_cast<double>(i);
    ++fx.executed;
    fx.trace.record(job_event(now, EntityId{1},
                              TraceEventKind::kJobStarted, ClusterId{0},
                              JobId{static_cast<std::uint64_t>(i)}, UserId{2},
                              4));
    submitted.inc();
    wait.observe(static_cast<double>(i % 7));
    fx.plane->publish(now);
  }
  EXPECT_EQ(allocations(), before)
      << "steady-state publish must not allocate on the simulation thread";
  EXPECT_EQ(fx.plane->publishes(), 10'001u);
  EXPECT_EQ(fx.plane->alerts_total(), 0u);
}

TEST(LiveAlloc, MonitorEvaluationAndAlertEmissionAreAllocationFree) {
  Fixture fx;
  double residual = 0.0;
  {
    // Rebuild the plane with a violating-then-recovering ledger probe.
    LiveConfig config;
    config.publish_interval = 0.0;
    LivePlane::Bindings b;
    b.metrics = &fx.metrics;
    b.trace = &fx.trace;
    b.alert_sink = &fx.alerts;
    b.audit = [&residual](double) {
      Audit a;
      a.ledger_residual = residual;
      return a;
    };
    fx.plane = std::make_unique<LivePlane>(config, std::move(b));
  }
  fx.plane->begin_run();
  fx.plane->publish(0.0);
  const auto before = allocations();
  // A full violate/recover cycle: the kAlert record goes through the
  // preallocated trace ring, so even alerting publishes stay heap-free.
  residual = 1.0;
  fx.plane->publish(1.0);
  residual = 0.0;
  fx.plane->publish(2.0);
  residual = 2.0;
  fx.plane->publish(3.0);
  EXPECT_EQ(allocations(), before)
      << "monitor evaluation and alert emission must not allocate";
  EXPECT_EQ(fx.plane->alerts_total(), 2u);
  EXPECT_EQ(fx.alerts.size(), 2u);
}

TEST(LiveAlloc, RegistryGrowthReCapturesSchemaOnce) {
  Fixture fx;
  fx.plane->begin_run();
  fx.plane->publish(0.0);
  // Growth: the next publish may allocate (schema re-capture)...
  fx.metrics.counter("faucets_test_late_total").inc();
  fx.plane->publish(1.0);
  // ...but the state after it is steady again.
  const auto before = allocations();
  for (int i = 2; i < 100; ++i) {
    fx.plane->publish(static_cast<double>(i));
  }
  EXPECT_EQ(allocations(), before);
}

}  // namespace
}  // namespace faucets::obs::live

// Telemetry analytics over a full chaos grid (ISSUE acceptance): the
// exclusive-phase decomposition must partition every submission's makespan
// within 1e-9 under loss + crash + retries, the sampler must capture the
// run's signals without perturbing the simulation (and build no series when
// sampling is off), and the derived report surfaces (GridReport phase
// means, deadline accounting, HTML) must agree with each other
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/grid_system.hpp"
#include "src/obs/report.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

ClusterSetup make_cluster(const std::string& name, double cost) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
  return setup;
}

std::vector<job::JobRequest> workload(std::size_t n) {
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = static_cast<double>(i) * 40.0;
    req.user_index = i % 3;
    req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    // Alternate flat and deadline contracts so the accounting sees both.
    if (i % 2 == 0) {
      req.contract.payoff = qos::PayoffFunction::flat(10.0);
    } else {
      req.contract.payoff = qos::PayoffFunction::deadline(
          req.submit_time + 2000.0, req.submit_time + 8000.0, 10.0, 2.0, 1.0);
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

std::unique_ptr<GridSystem> make_chaos_grid(double sample_interval) {
  GridConfig config;
  config.client_watchdog_margin = 120.0;
  config.faults.loss_rate = 0.10;
  config.faults.seed = 0xc0ffee;
  config.crashes.push_back({0, 200.0, 600.0, /*graceful=*/false});
  if (sample_interval > 0.0) {
    config.telemetry.sample_interval = sample_interval;
    config.telemetry.series_capacity = 64;
  }
  return std::make_unique<GridSystem>(
      std::move(config),
      std::vector{make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005),
                  make_cluster("gamma", 0.0009)},
      3);
}

TEST(Telemetry, PhaseDecompositionPartitionsEverySubmissionUnderChaos) {
  auto grid_ptr = make_chaos_grid(/*sample_interval=*/10.0);
  GridSystem& grid = *grid_ptr;
  const GridReport report = grid.run(workload(12), /*until=*/1e6);

  const GridTelemetry tel = grid.telemetry();
  EXPECT_EQ(tel.analysis.jobs.size(), 12u)
      << "every submission root must be closed and analyzed";
  EXPECT_EQ(tel.analysis.open_roots, 0u);
  for (const obs::JobPhaseRecord& rec : tel.analysis.jobs) {
    EXPECT_LE(std::fabs(rec.phase_sum() - rec.makespan()), 1e-9)
        << "root span " << rec.root.value()
        << ": exclusive phases must partition the makespan";
    for (const double v : rec.phase_seconds) EXPECT_GE(v, 0.0);
    EXPECT_NE(rec.outcome, obs::SpanKind::kSubmission)
        << "every closed submission carries a terminal outcome";
  }
  EXPECT_EQ(tel.analysis.count_outcome(obs::SpanKind::kComplete),
            report.jobs_completed);

  // GridReport's phase means are the analysis's means, verbatim.
  const auto means = tel.analysis.mean_phases();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_DOUBLE_EQ(report.phase_mean_seconds[p], means[p]);
  }
  // Chaos makes jobs actually run and actually wait.
  EXPECT_GT(report.phase_mean_seconds[static_cast<std::size_t>(obs::Phase::kRun)],
            0.0);

  // The phase histograms were published into the registry at end of run.
  const obs::Histogram* h = grid.context().metrics().find_histogram(
      "faucets_phase_seconds{phase=\"run\"}");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 12u);
}

TEST(Telemetry, SamplerCapturesGridSignals) {
  auto grid_ptr = make_chaos_grid(/*sample_interval=*/10.0);
  GridSystem& grid = *grid_ptr;
  grid.run(workload(12), /*until=*/1e6);

  const obs::Sampler& sampler = grid.sampler();
  EXPECT_GT(sampler.samples_taken(), 0u);

  // Per-cluster signals and the market-wide series GridSystem registers.
  for (const char* name :
       {"faucets_cluster_utilization{cluster=\"alpha\"}",
        "faucets_cluster_queue_depth{cluster=\"beta\"}",
        "faucets_cluster_reservations{cluster=\"gamma\"}",
        "faucets_market_revenue_total", "faucets_market_inflight_requests",
        "faucets_retry_attempts_total", "faucets_grid_unit_price"}) {
    const obs::Series* s = sampler.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->observations(), sampler.samples_taken()) << name;
    EXPECT_LE(s->points().size(), 64u) << name;
  }
  // Work happened, so utilization and revenue moved off zero at some point.
  double peak_util = 0.0;
  for (const char* cluster : {"alpha", "beta", "gamma"}) {
    const std::string name =
        std::string("faucets_cluster_utilization{cluster=\"") + cluster + "\"}";
    peak_util = std::max(peak_util, sampler.find(name)->value_max());
  }
  EXPECT_GT(peak_util, 0.0);
  EXPECT_GT(sampler.find("faucets_market_revenue_total")->value_max(), 0.0);
  // The lossy wire forces retries, visible as a rising counter series.
  EXPECT_GT(sampler.find("faucets_retry_attempts_total")->value_max(), 0.0);
}

TEST(Telemetry, SamplingDoesNotPerturbTheSimulation) {
  // The sampler's periodic event only reads state, so the run's outcome
  // must be bit-identical with sampling on, off, or at a different cadence.
  auto with = make_chaos_grid(10.0);
  auto without = make_chaos_grid(0.0);
  auto coarse = make_chaos_grid(250.0);
  const GridReport a = with->run(workload(12), 1e6);
  const GridReport b = without->run(workload(12), 1e6);
  const GridReport c = coarse->run(workload(12), 1e6);

  EXPECT_EQ(without->sampler().samples_taken(), 0u)
      << "sampling is off by default";
  EXPECT_EQ(without->sampler().series_count(), 0u)
      << "a grid that never samples builds no series";

  // With sampling on, the grid registers 4N + 4 series: the unit price,
  // then each cluster's three signals and its revenue (the grid-wide
  // revenue once, after the first cluster's three), then the market-wide
  // in-flight and retry series.
  std::vector<std::string> expected = {"faucets_grid_unit_price"};
  for (const char* cluster : {"alpha", "beta", "gamma"}) {
    const std::string label = std::string("{cluster=\"") + cluster + "\"}";
    for (const char* signal : {"faucets_cluster_utilization",
                               "faucets_cluster_queue_depth",
                               "faucets_cluster_reservations"}) {
      expected.push_back(signal + label);
    }
    if (cluster == std::string("alpha")) {
      expected.push_back("faucets_market_revenue_total");
    }
    expected.push_back("faucets_revenue" + label);
  }
  expected.push_back("faucets_market_inflight_requests");
  expected.push_back("faucets_retry_attempts_total");
  std::vector<std::string> names;
  with->sampler().for_each([&](const obs::Series& s) { names.push_back(s.name()); });
  EXPECT_EQ(names, expected);

  for (const GridReport* r : {&b, &c}) {
    EXPECT_EQ(a.jobs_completed, r->jobs_completed);
    EXPECT_EQ(a.jobs_unplaced, r->jobs_unplaced);
    EXPECT_EQ(a.messages, r->messages);
    EXPECT_DOUBLE_EQ(a.total_spent, r->total_spent);
    EXPECT_DOUBLE_EQ(a.makespan, r->makespan);
  }
  // And the derived analytics are deterministic: same seed, same phases.
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_EQ(a.phase_mean_seconds[p], b.phase_mean_seconds[p])
        << "phase means must be byte-identical across telemetry configs";
    EXPECT_EQ(a.phase_mean_seconds[p], c.phase_mean_seconds[p]);
  }
}

TEST(Telemetry, DeadlineAccountingJoinsClientsAndClusters) {
  auto grid_ptr = make_chaos_grid(10.0);
  GridSystem& grid = *grid_ptr;
  const GridReport report = grid.run(workload(12), 1e6);

  const GridTelemetry tel = grid.telemetry();
  ASSERT_EQ(tel.users.size(), 3u);
  ASSERT_EQ(tel.clusters.size(), 3u);
  EXPECT_EQ(tel.clusters[0].scope, "alpha");
  EXPECT_EQ(tel.users[0].scope, "user0");

  std::uint64_t user_jobs = 0;
  for (const obs::DeadlineRow& r : tel.users) {
    EXPECT_EQ(r.met_soft + r.met_hard + r.penalized + r.unfinished, r.jobs)
        << r.scope << ": every job lands in exactly one deadline bucket";
    user_jobs += r.jobs;
  }
  EXPECT_EQ(user_jobs, 12u);

  std::uint64_t finished_on_clusters = 0;
  for (const obs::DeadlineRow& r : tel.clusters) {
    EXPECT_EQ(r.met_soft + r.met_hard + r.penalized + r.unfinished, r.jobs);
    finished_on_clusters += r.jobs - r.unfinished;
  }
  EXPECT_EQ(finished_on_clusters, report.jobs_completed)
      << "every completed job is attributed to the cluster that ran it";
  // Deadline contracts cap the realizable payoff; flat ones equal it.
  double realized = 0.0;
  double max = 0.0;
  for (const obs::DeadlineRow& r : tel.users) {
    realized += r.payoff_realized;
    max += r.payoff_max;
  }
  EXPECT_LE(realized, max + 1e-9);
  EXPECT_GT(max, 0.0);
}

TEST(Telemetry, HtmlReportRendersFromALiveGrid) {
  auto grid_ptr = make_chaos_grid(10.0);
  GridSystem& grid = *grid_ptr;
  grid.run(workload(12), 1e6);

  const GridTelemetry tel = grid.telemetry();
  const obs::TraceView trace = grid.merged_trace();
  std::ostringstream os;
  obs::write_html_report(os, grid.sampler(), tel.analysis, tel.users,
                         tel.clusters, &trace);
  const std::string html = os.str();
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("alpha"), std::string::npos);
  EXPECT_NE(html.find("12 submissions analyzed"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos) << "no scripts, no fetches";
}

}  // namespace
}  // namespace faucets::core

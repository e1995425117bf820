#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

namespace faucets::core {
namespace {

constexpr const char* kMinimal = R"(
[cluster]
name = only
procs = 128
)";

TEST(Scenario, MinimalDefaults) {
  auto scenario = Scenario::parse_string(kMinimal);
  ASSERT_EQ(scenario.clusters.size(), 1u);
  EXPECT_EQ(scenario.clusters[0].machine.name, "only");
  EXPECT_EQ(scenario.clusters[0].machine.total_procs, 128);
  EXPECT_EQ(scenario.total_procs(), 128);
  EXPECT_EQ(scenario.grid.central.billing, BillingMode::kDollars);
}

TEST(Scenario, RequiresACluster) {
  EXPECT_THROW(Scenario::parse_string("[grid]\nusers = 4\n"),
               std::invalid_argument);
}

TEST(Scenario, UnknownNamesRejectedWithHints) {
  EXPECT_THROW(Scenario::parse_string("[cluster]\nstrategy = magic\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[cluster]\nbidgen = bogus\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[grid]\nbilling = euros\n[cluster]\n"),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario::parse_string("[grid]\nevaluator = cheapest\n[cluster]\n"),
      std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[cluster]\nprocs = -4\n"),
               std::invalid_argument);
  // The removed sharded executor's section is rejected, not ignored.
  EXPECT_THROW(Scenario::parse_string("[cluster]\n[shards]\ncount = 2\n"),
               std::invalid_argument);
  // So is the removed [profile] section, and the error names the flags
  // that replaced it.
  try {
    (void)Scenario::parse_string("[cluster]\n[profile]\njson = p.json\n");
    ADD_FAILURE() << "[profile] was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--profile"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, FactoriesProduceNamedObjects) {
  EXPECT_EQ(strategy_factory("fcfs")()->name(), "fcfs");
  EXPECT_EQ(strategy_factory("payoff")()->name(), "payoff");
  EXPECT_EQ(strategy_factory("priority")()->name(), "priority");
  EXPECT_EQ(bidgen_factory("utilization")()->name(), "utilization");
  EXPECT_EQ(bidgen_factory("futures")()->name(), "futures");
  EXPECT_EQ(evaluator_factory("surplus")()->name(), "surplus");
}

TEST(Scenario, WorkloadCalibratedToLoad) {
  auto scenario = Scenario::parse_string(R"(
[cluster]
procs = 200
[cluster]
procs = 300
[workload]
jobs = 50
load = 0.5
)");
  const double offered =
      job::WorkloadGenerator::mean_work(scenario.workload) /
      (scenario.workload.mean_interarrival * 500.0);
  EXPECT_NEAR(offered, 0.5, 1e-9);
  EXPECT_EQ(scenario.workload.shaping.procs_cap, 300);
}

TEST(Scenario, EndToEndRunCompletes) {
  auto scenario = Scenario::parse_string(R"(
[grid]
users = 4
seed = 7
[cluster]
name = a
procs = 128
strategy = equipartition
bidgen = baseline
[cluster]
name = b
procs = 128
strategy = payoff
bidgen = utilization
[workload]
jobs = 40
load = 0.5
)");
  const auto report = scenario.run();
  EXPECT_EQ(report.jobs_submitted, 40u);
  EXPECT_GT(report.jobs_completed, 30u);

  std::ostringstream os;
  print_report(os, report);
  EXPECT_NE(os.str().find("jobs: 40 submitted"), std::string::npos);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
}

TEST(Scenario, TraceSectionParses) {
  auto scenario = Scenario::parse_string(R"(
[grid]
users = 6
seed = 99
[cluster]
procs = 256
[trace]
file = /data/month.swf
time_compression = 4
user_multiplier = 3
jitter = 45
sort_window = 120
max_jobs = 1000000
read_ahead = 8192
malleability = 0.5
deadline_fraction = 0.25
)");
  ASSERT_TRUE(scenario.trace.has_value());
  EXPECT_EQ(scenario.trace->path, "/data/month.swf");
  EXPECT_DOUBLE_EQ(scenario.trace->options.time_compression, 4.0);
  EXPECT_EQ(scenario.trace->options.user_multiplier, 3u);
  EXPECT_DOUBLE_EQ(scenario.trace->options.clone_jitter, 45.0);
  EXPECT_DOUBLE_EQ(scenario.trace->options.sort_window, 120.0);
  EXPECT_EQ(scenario.trace->options.max_jobs, 1000000u);
  EXPECT_EQ(scenario.trace->options.read_ahead, 8192u);
  EXPECT_DOUBLE_EQ(scenario.trace->options.shaping.malleability, 0.5);
  EXPECT_DOUBLE_EQ(scenario.trace->options.shaping.deadline_fraction, 0.25);
  // Trace seed defaults to the scenario seed; procs are capped at the
  // largest cluster so no trace job is unplaceable.
  EXPECT_EQ(scenario.trace->options.seed, 99u);
  EXPECT_EQ(scenario.trace->options.shaping.procs_cap, 256);
}

TEST(Scenario, TraceSectionValidates) {
  EXPECT_THROW(Scenario::parse_string("[cluster]\nprocs = 4\n[trace]\n"),
               std::invalid_argument);  // missing file
  EXPECT_THROW(Scenario::parse_string(
                   "[cluster]\nprocs = 4\n[trace]\nfile = x.swf\n"
                   "time_compression = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string(
                   "[cluster]\nprocs = 4\n[trace]\nfile = x.swf\n"
                   "user_multiplier = 0\n"),
               std::invalid_argument);
}

// The retry timeout, the fault instants and the crash and partition cluster
// indices are checked when the grid is built, and the error names the INI
// key; the [market], [store] and [live] range checks, made at parse time,
// name theirs too. A NaN retry_base armed every retry timer at NaN, which
// broke the engine's ordering and grew the event pool until memory ran
// out; 0 timed every exchange out at once; a NaN crash_at silently emptied
// a cluster. A NaN loss or jitter, and a NaN [grid] watchdog or price band,
// read as "off"; a loss above 1 dropped every message.
TEST(Scenario, RejectsNonFiniteFaultTimes) {
  auto build = [](const std::string& faults, const std::string& grid = "") {
    return Scenario::parse_string("[grid]\nusers = 4\n" + grid + "\n[faults]\n" +
                                  faults + "\n[cluster]\nname = a\nprocs = 64\n"
                                  "[cluster]\nname = b\nprocs = 64\n")
        .make_grid();
  };
  const std::pair<const char*, const char*> bad[] = {
      {"retry_base = nan", "retry_base"},
      {"retry_base = 0", "retry_base"},
      {"retry_base = -5", "retry_base"},
      {"crash_cluster = 0\ncrash_at = nan", "crash_at"},
      {"crash_cluster = 0\ncrash_at = 10\ncrash_restart = inf", "crash_restart"},
      {"crash_cluster = 0\ncrash_at = 10\ncrash_restart = nan", "crash_restart"},
      {"partition_cluster = 1\npartition_from = 0\npartition_until = nan",
       "partition_until"},
      {"loss = nan", "loss"},
      {"loss = 1.5", "loss"},
      {"loss = -0.1", "loss"},
      {"jitter = nan", "jitter"},
      {"jitter = inf", "jitter"},
      {"jitter = -1", "jitter"},
      {"crash_cluster = 2\ncrash_at = 10", "crash_cluster"},
      {"partition_cluster = 2\npartition_until = 10", "partition_cluster"},
      // Rows from here on open a section of their own after [faults].
      {"[market]\nhistory_capacity = 0", "history_capacity"},
      {"[market]\nhistory_window = 0", "history_window"},
      {"[store]\nsync = none", "dir"},
      {"[store]\ndir = unused\nsync = sometimes", "sync"},
      {"[live]\nserve = false\nport = 70000", "port"},
  };
  const std::pair<const char*, const char*> bad_grid[] = {
      {"watchdog = nan", "watchdog"},
      {"price_band = nan", "price_band"},
  };
  const auto expect_rejected = [&](const std::string& faults,
                                   const std::string& grid, const char* key) {
    try {
      (void)build(faults, grid);
      ADD_FAILURE() << "accepted: " << grid << faults;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  };
  for (const auto& [faults, key] : bad) expect_rejected(faults, "", key);
  for (const auto& [grid, key] : bad_grid) expect_rejected("", grid, key);
  EXPECT_NE(build("retry_base = 2.5\ncrash_cluster = 0\ncrash_at = 100"), nullptr);
  // The "off" spellings stay valid.
  EXPECT_NE(build("loss = 1\njitter = 0", "watchdog = -1\nprice_band = 1"), nullptr);
}

// A second [faults] section or a second `loss` used to be ignored or to
// overwrite the first silently; both are refused, naming what repeats.
TEST(Scenario, RefusesARepeatedSectionOrKey) {
  const std::pair<const char*, const char*> bad[] = {
      {"[faults]\nloss = 0.1\n[faults]\njitter = 2\n", "[faults]"},
      {"[faults]\nloss = 0.1\nloss = 0.2\n", "loss"},
  };
  for (const auto& [faults, what] : bad) {
    try {
      (void)Scenario::parse_string(std::string(faults) + "[cluster]\nprocs = 64\n");
      ADD_FAILURE() << "accepted: " << faults;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
}

// Values that would hang the run or wrap to a huge count are refused at
// parse time, naming "[section] key": users = -1 would read as 2^64 - 1
// clients and jobs = -1 as 2^64 - 1 jobs; at speed 0 no job finishes and at
// load 0 none is submitted, so the run never ends; min_procs_lo = 0 makes
// every contract invalid, and mem_mb = 0 leaves every job unplaced (the
// Central Server lists no server with less memory per processor than the
// contract asks). Only parse_string is called, so no grid is built.
TEST(Scenario, RefusesValuesThatHangOrWrapTheRun) {
  const std::pair<const char*, const char*> bad[] = {
      {"[grid]\nusers = -1\n", "[grid] users"},
      {"[grid]\nusers = 0\n", "[grid] users"},
      {"[workload]\njobs = -1\n", "[workload] jobs"},
      {"[workload]\nload = 0\n", "[workload] load"},
      {"[workload]\nload = -0.5\n", "[workload] load"},
      {"[workload]\nload = inf\n", "[workload] load"},
      {"[workload]\nmin_procs_lo = 0\n", "[workload] min_procs_lo"},
      {"[workload]\nmin_procs_hi = -3\n", "[workload] min_procs_hi"},
      {"[cluster]\nspeed = 0\n", "[cluster] speed"},
      {"[cluster]\nspeed = -2\n", "[cluster] speed"},
      {"[cluster]\nspeed = inf\n", "[cluster] speed"},
      {"[cluster]\nmem_mb = 0\n", "[cluster] mem_mb of 'cluster0'"},
      {"[cluster]\nmem_mb = -512\n", "[cluster] mem_mb"},
      {"[cluster]\nmem_mb = inf\n", "[cluster] mem_mb"},
  };
  for (const auto& [ini, key] : bad) {
    try {
      (void)Scenario::parse_string(std::string(ini) + "[cluster]\nname = z\n");
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  const Scenario edge = Scenario::parse_string(
      "[grid]\nusers = 1\n[workload]\njobs = 0\nmin_procs_lo = 1\n"
      "min_procs_hi = 1\nload = 0.1\n[cluster]\nspeed = 0.5\n");
  EXPECT_EQ(edge.workload.user_count, 1u);
  EXPECT_EQ(edge.workload.job_count, 0u);
  EXPECT_DOUBLE_EQ(edge.clusters[0].machine.speed_factor, 0.5);
}

// A section or key that nothing reads is refused, naming it: `lod = 0.9`
// used to run at the default load of 0.8, and a misspelled [wrokload] was
// ignored. A key read only with another (crash_at with crash_cluster) is
// refused without it. scenario_sim runs one scenario, so a sweep file's
// [sweep] is refused too: faucets_sweep reads it.
TEST(Scenario, RefusesSectionsAndKeysNothingReads) {
  const std::pair<const char*, const char*> bad[] = {
      {"[workload]\nlod = 0.9\n", "[workload] lod"},
      {"[wrokload]\njobs = 5\n", "[wrokload]"},
      {"[faults]\ncrash_at = 10\n", "[faults] crash_at"},
      {"[faults]\npartition_until = 10\n", "[faults] partition_until"},
      {"[trace]\nfile = x.swf\ncluster_multiplier = 2\n", "[trace] cluster_multiplier"},
      {"[live]\nserve = false\nrecent_events = 64\n", "[live] recent_events"},
      {"[sweep]\nloads = 0.5\n", "faucets_sweep"},
      {"[grid]\nusers = 2\nseeds = 7\n", "[grid] seeds"},
  };
  for (const auto& [ini, what] : bad) {
    try {
      (void)Scenario::parse_string(std::string(ini) + "[cluster]\nname = z\n");
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  // Read under its condition, crash_at is accepted.
  const Scenario crash = Scenario::parse_string(
      "[faults]\ncrash_cluster = 0\ncrash_at = 10\n[cluster]\nname = z\n");
  ASSERT_EQ(crash.grid.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(crash.grid.crashes[0].at, 10.0);
}

// The audit's thresholds are constants and the monitors always run, so the
// [live] keys that set them are rejected, naming the audit.
TEST(Scenario, RejectsRemovedLiveMonitorKeys) {
  for (const char* key : {"monitors = false", "ledger_residual_max = 1e-6",
                          "lease_grace = 0.5"}) {
    try {
      (void)Scenario::parse_string(std::string("[live]\nserve = false\n") + key +
                                   "\n[cluster]\nprocs = 64\n");
      ADD_FAILURE() << "accepted: " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("audit"), std::string::npos) << e.what();
    }
  }
  const Scenario ok = Scenario::parse_string(
      "[live]\nserve = false\nstall_timeout = 0.5\n[cluster]\nprocs = 64\n");
  EXPECT_DOUBLE_EQ(ok.grid.live.stall_timeout, 0.5);
}

TEST(Scenario, BrokeredFlagHonored) {
  auto scenario = Scenario::parse_string(R"(
[grid]
brokered = true
users = 2
[cluster]
procs = 64
[workload]
jobs = 10
load = 0.4
)");
  EXPECT_TRUE(scenario.grid.brokered_submission);
  const auto report = scenario.run();
  EXPECT_EQ(report.jobs_completed + report.jobs_unplaced, 10u);
}

// The broker selects with the client's evaluator, so `[grid] evaluator`
// decides a brokered grid as it decides a direct one. It used to apply a
// least-cost rule of its own, whatever the INI said.
TEST(Scenario, BrokeredGridSelectsWithTheGridEvaluator) {
  const auto winner = [](const std::string& evaluator) {
    auto scenario = Scenario::parse_string(
        "[grid]\nbrokered = true\nusers = 1\nevaluator = " + evaluator +
        "\n[cluster]\nname = slow\nprocs = 64\ncost = 0.0001\n"
        "[cluster]\nname = fast\nprocs = 64\ncost = 0.01\nspeed = 4\n");
    auto grid = scenario.make_grid();
    job::JobRequest job;
    job.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    job.contract.payoff = qos::PayoffFunction::flat(10.0);
    const auto report = grid->run({job});
    EXPECT_EQ(report.jobs_completed, 1u) << evaluator;
    return grid->client(0).outcomes().at(0).cluster;
  };
  // The fast machine promises the earliest completion; the slow one is
  // cheaper.
  EXPECT_EQ(winner("earliest-completion"), ClusterId{1});
  EXPECT_EQ(winner("least-cost"), ClusterId{0});
}

}  // namespace
}  // namespace faucets::core

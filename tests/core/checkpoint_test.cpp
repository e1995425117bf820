// Whole-simulation checkpoint/restore (DESIGN.md §14): checkpoint files
// round-trip exactly, readers reject damaged or wrong-version files, the
// pause hook does not perturb the run, and a restore replayed from t = 0
// passes verification and produces a byte-identical report.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/core/scenario.hpp"
#include "src/store/checkpoint.hpp"
#include "src/store/codec.hpp"

namespace faucets::core {
namespace {

std::string grid_ini() {
  std::ostringstream ini;
  // A lossy run needs the completion watchdog: a dropped JobDone would
  // otherwise strand its client and the run would never drain.
  ini << "[grid]\nbilling = barter\nusers = 6\nseed = 11\nwatchdog = 600\n"
      << "[faults]\nloss = 0.05\njitter = 0.2\nseed = 99\n";
  for (int c = 0; c < 8; ++c) {
    ini << "[cluster]\nname = c" << c
        << "\nprocs = 16\ncost = 0.00" << (c % 3 + 1)
        << "\ncredits = 100\nstrategy = fcfs\n";
  }
  ini << "[workload]\njobs = 120\nload = 0.7\n";
  return ini.str();
}

std::string report_json(Scenario scenario) {
  std::ostringstream os;
  write_report_json(os, scenario.run());
  return os.str();
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  store::Checkpoint ckpt;
  ckpt.scenario_text = "[grid]\nusers = 2\n";
  ckpt.until = 3600.0;
  ckpt.sim_time = 1234.5;
  ckpt.executed = 40;
  ckpt.state_image = std::string("\x00\x01\x02 binary", 10);

  const auto back = store::Checkpoint::decode(ckpt.encode());
  EXPECT_EQ(back.scenario_text, ckpt.scenario_text);
  EXPECT_EQ(back.until, ckpt.until);
  EXPECT_EQ(back.sim_time, ckpt.sim_time);
  EXPECT_EQ(back.executed, ckpt.executed);
  EXPECT_EQ(back.state_image, ckpt.state_image);
}

TEST(Checkpoint, FileRoundTripAndDamageRejection) {
  const std::string path = testing::TempDir() + "grid_checkpoint_test.ckpt";
  store::Checkpoint ckpt;
  ckpt.scenario_text = "[grid]\n";
  ckpt.sim_time = 7.0;
  ckpt.executed = 42;
  ckpt.write_file(path);

  const auto back = store::Checkpoint::read_file(path);
  EXPECT_EQ(back.sim_time, 7.0);
  EXPECT_EQ(back.executed, 42u);

  // Flip a body byte: the CRC frame must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7f');
  }
  EXPECT_THROW((void)store::Checkpoint::read_file(path), std::runtime_error);
  std::remove(path.c_str());

  EXPECT_THROW((void)store::Checkpoint::read_file(path), std::runtime_error)
      << "missing file";
}

// Version 1 carried the removed sharded executor's shard count and a
// per-shard executed-count list; version 2 a list of (flag, value) CLI
// overrides where version 3 has `until`. The reader refuses both bodies up
// front rather than misreading their fields, and names both versions.
TEST(Checkpoint, RefusesAVersionOneBody) {
  store::Encoder v1;
  v1.put_u32(1);
  v1.put_string(grid_ini());
  v1.put_u32(0);     // no overrides
  v1.put_f64(40.0);  // sim_time
  v1.put_u64(0);     // shards
  v1.put_u32(1);     // one executed-event count
  v1.put_u64(1234);  // executed
  v1.put_string("image");

  store::Encoder v2;
  v2.put_u32(2);
  v2.put_string(grid_ini());
  v2.put_u32(1);  // one override
  v2.put_string("--loss");
  v2.put_string("0.1");
  v2.put_f64(40.0);  // sim_time
  v2.put_u64(1234);  // executed
  v2.put_string("image");

  for (const auto& [version, body] :
       {std::pair{1, v1.take()}, std::pair{2, v2.take()}}) {
    try {
      (void)store::Checkpoint::decode(body);
      ADD_FAILURE() << "a version-" << version << " checkpoint must not restore";
    } catch (const std::runtime_error& e) {
      const std::string expected = "version " + std::to_string(version) +
                                   " is not supported (expected 3)";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointRestore, RestoredRunIsByteIdentical) {
  const std::string ini = grid_ini();
  const double pause_at = 40.0;

  // Reference: the uninterrupted run.
  const std::string reference = report_json(Scenario::parse_string(ini));

  // Checkpointing run: pause at T, capture, continue to completion. The
  // hook must not perturb the simulation.
  store::Checkpoint ckpt;
  ckpt.scenario_text = ini;
  bool captured = false;
  {
    auto scenario = Scenario::parse_string(ini);
    const auto grid = scenario.make_grid();
    const auto source = scenario.make_source();
    grid->set_pause_hook(pause_at, [&] {
      fill_checkpoint(ckpt, *grid, pause_at);
      captured = true;
      return true;
    });
    const auto report = grid->run(*source);
    std::ostringstream os;
    write_report_json(os, report);
    EXPECT_EQ(os.str(), reference)
        << "capturing a checkpoint must not change the run";
  }
  ASSERT_TRUE(captured) << "the run ended before the checkpoint instant";
  EXPECT_EQ(ckpt.sim_time, pause_at);
  EXPECT_GT(ckpt.executed, 0u);

  // Restoring run: replay from t = 0, verify the fingerprint at T, finish.
  {
    auto scenario = Scenario::parse_string(ckpt.scenario_text);
    const auto grid = scenario.make_grid();
    const auto source = scenario.make_source();
    std::string mismatch = "hook never ran";
    grid->set_pause_hook(ckpt.sim_time, [&] {
      mismatch = verify_checkpoint(ckpt, *grid);
      return mismatch.empty();
    });
    const auto report = grid->run(*source);
    EXPECT_EQ(mismatch, "");
    std::ostringstream os;
    write_report_json(os, report);
    EXPECT_EQ(os.str(), reference)
        << "a verified restore must finish byte-identical to the "
           "uninterrupted run";
  }

  // A tampered fingerprint must fail verification and abandon the run.
  {
    store::Checkpoint bad = ckpt;
    bad.executed += 1;
    auto scenario = Scenario::parse_string(bad.scenario_text);
    const auto grid = scenario.make_grid();
    const auto source = scenario.make_source();
    std::string mismatch;
    grid->set_pause_hook(bad.sim_time, [&] {
      mismatch = verify_checkpoint(bad, *grid);
      return mismatch.empty();
    });
    (void)grid->run(*source);
    EXPECT_NE(mismatch, "") << "a wrong executed count must be detected";
  }
}

}  // namespace
}  // namespace faucets::core

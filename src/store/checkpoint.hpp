// Whole-simulation checkpoint files (DESIGN.md §14).
//
// A simulation's event queue holds closures, which cannot be serialized —
// so a Faucets checkpoint is *replay-verified*: it pins everything needed
// to reproduce the run deterministically (the scenario text and the run's
// horizon) plus a fingerprint of the simulation's durable
// state at the checkpoint instant (the encoded Central Server state and the
// executed-event count). `--restore` re-runs the
// scenario from t = 0 and *proves* it passed through the checkpointed
// state byte-for-byte at time T before letting the run continue — restored
// artifacts are then byte-identical to an uninterrupted run by determinism,
// not by hope.
//
// File format (version 3): a framed file (src/store/framed.hpp) with the
// magic "FAUCCKP\x01" around one encoded body:
//
//   u32 version | string scenario_text | f64 until | f64 sim_time |
//   u64 executed | string state_image
//
// Version 2 carried a list of (flag, value) CLI overrides where `until`
// now is; version 1 also carried the removed sharded executor's shard count
// and a per-shard executed-count list between sim_time and executed.
//
// Version policy: readers reject any other version outright (a checkpoint
// is a precise replay contract, not a migratable database); a change to the
// body's fields means a new version.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace faucets::store {

struct Checkpoint {
  static constexpr std::uint32_t kVersion = 3;

  std::string scenario_text;  // the full INI the run was parsed from
  /// The horizon the run was given (scenario_sim's --until), re-applied on
  /// restore; +inf = none.
  double until = std::numeric_limits<double>::infinity();
  double sim_time = 0.0;      // the pause boundary the state was captured at
  std::uint64_t executed = 0; // executed-event count at T
  std::string state_image;    // encoded Central Server durable state at T

  /// Serialize to / parse from the framed on-disk format. write_file is
  /// atomic and durable (write_framed_file); read_file and decode throw
  /// std::runtime_error on a missing, torn, or wrong-version file.
  void write_file(const std::string& path) const;
  [[nodiscard]] static Checkpoint read_file(const std::string& path);

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static Checkpoint decode(const std::string& body);
};

}  // namespace faucets::store

// Whole-simulation checkpoint files (DESIGN.md §14).
//
// A simulation's event queue holds closures, which cannot be serialized —
// so a Faucets checkpoint is *replay-verified*: it pins everything needed
// to reproduce the run deterministically (the scenario text and the
// effective CLI overrides) plus a fingerprint of the simulation's durable
// state at the checkpoint instant (the encoded Central Server state and the
// executed-event count). `--restore` re-runs the
// scenario from t = 0 and *proves* it passed through the checkpointed
// state byte-for-byte at time T before letting the run continue — restored
// artifacts are then byte-identical to an uninterrupted run by determinism,
// not by hope.
//
// File format (version 1): 8-byte magic "FAUCCKP\x01", then u32 length +
// u32 CRC-32 framing one encoded body:
//
//   u32 version | string scenario_text | u32 n_overrides | n x (string flag,
//   string value) | f64 sim_time | u64 shards | u32 n_shards | n x u64
//   executed | string state_image
//
// `shards` and the executed-count list are the removed sharded executor's
// fields: writers record shards = 0 and one count, and readers reject any
// other shape, because such a checkpoint pins a run that can no longer be
// replayed.
//
// Version policy: readers reject a different major version outright (a
// checkpoint is a precise replay contract, not a migratable database); new
// fields mean a new version byte and a new magic-tail.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace faucets::store {

struct Checkpoint {
  static constexpr std::uint32_t kVersion = 1;

  std::string scenario_text;  // the full INI the run was parsed from
  /// Simulation-affecting CLI overrides, re-applied verbatim on restore.
  std::vector<std::pair<std::string, std::string>> overrides;
  double sim_time = 0.0;      // the pause boundary the state was captured at
  std::uint64_t shards = 0;   // nonzero only in sharded-executor checkpoints
  std::uint64_t executed = 0; // executed-event count at T
  std::string state_image;    // encoded Central Server durable state at T

  /// Serialize to / parse from the framed on-disk format. write_file is
  /// atomic (tmp + rename); read_file and decode throw std::runtime_error on
  /// a missing, torn, or wrong-version file, or on one written by the
  /// sharded executor.
  void write_file(const std::string& path) const;
  [[nodiscard]] static Checkpoint read_file(const std::string& path);

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static Checkpoint decode(const std::string& body);
};

}  // namespace faucets::store

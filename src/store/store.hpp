// Pluggable state stores (DESIGN.md §14) — the persistence seam behind the
// Central Server's accounting state, modeled on SLURM's accounting_storage
// plugin family: the domain layer journals logical operations through one
// narrow interface and never sees the storage medium.
//
// Two backends:
//   MemStore     — in-memory vectors; the "none" plugin for tests and for
//                  grids that do not want durability.
//   DurableStore — a directory holding generation-numbered full snapshots
//                  plus an append-only WAL of operations since the last
//                  snapshot. snapshot() is atomic (tmp + rename) and
//                  truncates the log; recover() returns the latest valid
//                  snapshot image and every intact WAL record after it.
//
// The store is intentionally ignorant of what the bytes mean: encoding and
// replay live with the domain objects (BarterLedger &c., see
// src/faucets/central_store.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/store/wal.hpp"

namespace faucets::store {

class StateStore {
 public:
  virtual ~StateStore() = default;

  /// Journal one logical operation. Ordered; durable per the backend's
  /// sync policy.
  virtual void append(std::uint16_t type, std::string_view payload) = 0;

  /// Make every append so far durable.
  virtual void flush() = 0;

  /// Atomically replace the persisted state with `image` (a full encoding
  /// of current domain state) and truncate the operation log. Must be
  /// called once before the first append of a session: it opens the
  /// session's log generation.
  virtual void snapshot(std::string_view image) = 0;

  struct Recovered {
    std::string snapshot;        // latest durable image ("" = empty state)
    std::vector<WalRecord> ops;  // intact operations after that snapshot
    bool torn = false;           // a torn/corrupt WAL tail was discarded
    std::uint64_t generation = 0;
  };
  /// Read back the durable state without disturbing it.
  [[nodiscard]] virtual Recovered recover() const = 0;

  [[nodiscard]] virtual std::uint64_t appends_since_snapshot() const noexcept = 0;
};

/// In-memory backend: snapshots and operations live in this process only.
class MemStore final : public StateStore {
 public:
  void append(std::uint16_t type, std::string_view payload) override;
  void flush() override {}
  void snapshot(std::string_view image) override;
  [[nodiscard]] Recovered recover() const override;
  [[nodiscard]] std::uint64_t appends_since_snapshot() const noexcept override {
    return ops_.size();
  }

 private:
  std::string image_;
  std::vector<WalRecord> ops_;
  std::uint64_t generation_ = 0;
};

struct DurableOptions {
  SyncPolicy sync = SyncPolicy::kBatch;
  std::size_t sync_every = 64;  // group-commit batch size (kBatch only)
};

/// Directory-backed store: `snapshot-<gen>` + `wal-<gen>` pairs, highest
/// valid generation wins at recovery. Not thread-safe (only the simulation
/// thread touches it).
class DurableStore final : public StateStore {
 public:
  /// Opens (and creates if needed) `dir`, locating the latest generation.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit DurableStore(std::string dir, DurableOptions options = {});
  ~DurableStore() override;

  void append(std::uint16_t type, std::string_view payload) override;
  void flush() override;
  void snapshot(std::string_view image) override;
  [[nodiscard]] Recovered recover() const override;
  [[nodiscard]] std::uint64_t appends_since_snapshot() const noexcept override {
    return appends_;
  }

  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// WAL framing/sync counters for BENCH_store.
  [[nodiscard]] std::uint64_t wal_bytes() const noexcept { return wal_.bytes_framed(); }
  [[nodiscard]] std::uint64_t wal_syncs() const noexcept { return wal_.syncs(); }

  [[nodiscard]] std::string snapshot_path(std::uint64_t gen) const;
  [[nodiscard]] std::string wal_path(std::uint64_t gen) const;

 private:
  [[nodiscard]] std::uint64_t scan_latest_generation() const;

  std::string dir_;
  DurableOptions options_;
  std::uint64_t generation_ = 0;  // 0 = no snapshot yet; writing is gen >= 1
  std::uint64_t appends_ = 0;
  WalWriter wal_;
};

}  // namespace faucets::store

// Experiment E16 (DESIGN.md §14): the durable state store's cost envelope.
//
// Two sections:
//   wal      — append throughput under each sync policy (none / batch /
//              always), records/s and framed MB/s for ledger-sized records.
//   snapshot — full-image snapshot latency and crash-recovery latency
//              (decode snapshot + replay a WAL suffix) for a Central state
//              holding thousands of journaled operations.
//
//   ./bench/bench_store [--ops N] [--out BENCH_store.json]
//
// Defaults keep the whole run well under a minute; ci/run.sh passes --out.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/faucets/central_store.hpp"
#include "src/store/codec.hpp"
#include "src/store/store.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

namespace fs = std::filesystem;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct WalRow {
  std::string policy;
  std::uint64_t records = 0;
  double wall_ms = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t syncs = 0;
  [[nodiscard]] double records_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(records) / (wall_ms / 1000.0) : 0.0;
  }
  [[nodiscard]] double mb_per_sec() const {
    return wall_ms > 0.0
               ? static_cast<double>(bytes) / 1048576.0 / (wall_ms / 1000.0)
               : 0.0;
  }
};

WalRow wal_throughput(const std::string& dir, store::SyncPolicy policy,
                      const char* name, std::uint64_t records) {
  fs::remove_all(dir);
  store::DurableStore st(dir, {.sync = policy, .sync_every = 64});
  st.snapshot("");
  // A ledger-transfer-sized payload: time + home + executor + credits.
  store::Encoder enc;
  enc.put_f64(1234.5);
  enc.put_u64(3);
  enc.put_u64(7);
  enc.put_f64(42.25);
  const std::string payload = enc.take();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < records; ++i) st.append(0x0102, payload);
  st.flush();
  WalRow row;
  row.policy = name;
  row.records = records;
  row.wall_ms = ms_since(t0);
  row.bytes = st.wal_bytes();
  row.syncs = st.wal_syncs();
  fs::remove_all(dir);
  return row;
}

struct SnapshotRow {
  std::uint64_t ops = 0;
  std::uint64_t image_bytes = 0;
  double snapshot_ms = 0.0;
  double recover_replay_ms = 0.0;    // empty snapshot + full WAL replay
  double recover_snapshot_ms = 0.0;  // full snapshot + empty WAL
};

SnapshotRow snapshot_latency(const std::string& dir, std::uint64_t ops) {
  fs::remove_all(dir);
  SnapshotRow row;
  row.ops = ops;
  store::DurableStore st(dir, {.sync = store::SyncPolicy::kNone});
  st.snapshot("");
  CentralState state;
  state.ledger.set_store(&st);
  state.accounts.set_store(&st);
  state.ledger.open_account(ClusterId{1}, 1e9);
  state.ledger.open_account(ClusterId{2}, 1e9);
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)state.ledger.transfer(ClusterId{1 + i % 2}, ClusterId{2 - i % 2},
                                0.5);
  }
  st.flush();

  {
    const auto t0 = std::chrono::steady_clock::now();
    const CentralState recovered = recover_central_state(st);
    row.recover_replay_ms = ms_since(t0);
    if (recovered.ledger.log().size() != ops) {
      std::cerr << "FAIL: replay recovered " << recovered.ledger.log().size()
                << " transfers, expected " << ops << "\n";
      std::exit(2);
    }
  }

  const std::string image = encode_central_state(state);
  row.image_bytes = image.size();
  {
    const auto t0 = std::chrono::steady_clock::now();
    st.snapshot(image);
    row.snapshot_ms = ms_since(t0);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const CentralState recovered = recover_central_state(st);
    row.recover_snapshot_ms = ms_since(t0);
    if (recovered.ledger.log().size() != ops) {
      std::cerr << "FAIL: snapshot recovery lost transfers\n";
      std::exit(2);
    }
  }
  fs::remove_all(dir);
  return row;
}

double round2(double v) {
  return static_cast<double>(static_cast<std::int64_t>(v * 100 + 0.5)) / 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 50000;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ops" && i + 1 < argc) {
      ops = std::stoull(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_store [--ops N] [--out BENCH_store.json]\n";
      return 1;
    }
  }
  const std::string dir = fs::temp_directory_path() / "bench_store_dir";

  std::vector<WalRow> wal_rows;
  wal_rows.push_back(
      wal_throughput(dir, store::SyncPolicy::kNone, "none", ops));
  wal_rows.push_back(
      wal_throughput(dir, store::SyncPolicy::kBatch, "batch-64", ops));
  // fsync-per-record is orders of magnitude slower: scale the count down.
  wal_rows.push_back(
      wal_throughput(dir, store::SyncPolicy::kAlways, "always", ops / 50));

  Table wal_table{{"sync", "records", "wall ms", "records/s", "MB/s", "fsyncs"}};
  for (const WalRow& r : wal_rows) {
    wal_table.row()
        .cell(r.policy)
        .cell(r.records)
        .cell(r.wall_ms, 1)
        .cell(r.records_per_sec(), 0)
        .cell(r.mb_per_sec(), 1)
        .cell(r.syncs);
  }
  wal_table.print(std::cout);

  const SnapshotRow snap = snapshot_latency(dir, ops / 5);
  std::cout << "\nsnapshot: " << snap.ops << " ops, image "
            << snap.image_bytes << " B, write " << snap.snapshot_ms
            << " ms; recover(replay) " << snap.recover_replay_ms
            << " ms, recover(snapshot) " << snap.recover_snapshot_ms
            << " ms\n";

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    out << "{\n"
        << "  \"benchmark\": \"bench_store (E16: durable state store)\",\n"
        << "  \"schema_version\": 2,\n"
        << "  \"wal\": [\n";
    for (std::size_t i = 0; i < wal_rows.size(); ++i) {
      const WalRow& r = wal_rows[i];
      out << "    {\"sync\": \"" << r.policy << "\", \"records\": "
          << r.records << ", \"wall_ms\": " << round2(r.wall_ms)
          << ", \"records_per_sec\": "
          << static_cast<std::uint64_t>(r.records_per_sec() + 0.5)
          << ", \"mb_per_sec\": " << round2(r.mb_per_sec())
          << ", \"fsyncs\": " << r.syncs << "}"
          << (i + 1 < wal_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"snapshot\": {\"ops\": " << snap.ops
        << ", \"image_bytes\": " << snap.image_bytes
        << ", \"snapshot_ms\": " << round2(snap.snapshot_ms)
        << ", \"recover_replay_ms\": " << round2(snap.recover_replay_ms)
        << ", \"recover_snapshot_ms\": " << round2(snap.recover_snapshot_ms)
        << "},\n"
        << "  \"build\": \"release-bench (-O3 -DNDEBUG)\",\n"
        << "  \"source\": \"ci/run.sh\"\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

#include "src/store/store.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/store/framed.hpp"

namespace faucets::store {

namespace {

constexpr std::string_view kSnapMagic{"FAUCSNP\x01", 8};

}  // namespace

// --- MemStore ---------------------------------------------------------------

void MemStore::append(std::uint16_t type, std::string_view payload) {
  ops_.push_back(WalRecord{type, std::string(payload)});
}

void MemStore::snapshot(std::string_view image) {
  image_.assign(image);
  ops_.clear();
  ++generation_;
}

StateStore::Recovered MemStore::recover() const {
  Recovered out;
  out.snapshot = image_;
  out.ops = ops_;
  out.generation = generation_;
  return out;
}

// --- DurableStore -----------------------------------------------------------

DurableStore::DurableStore(std::string dir, DurableOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("store: cannot create directory " + dir_ + ": " +
                             std::strerror(errno));
  }
  generation_ = scan_latest_generation();
}

DurableStore::~DurableStore() = default;

std::string DurableStore::snapshot_path(std::uint64_t gen) const {
  return dir_ + "/snapshot-" + std::to_string(gen);
}

std::string DurableStore::wal_path(std::uint64_t gen) const {
  return dir_ + "/wal-" + std::to_string(gen);
}

std::uint64_t DurableStore::scan_latest_generation() const {
  // snapshot() retires the predecessor pair, so the generations on disk are
  // sparse — usually a single survivor, plus leftovers from a crash
  // mid-publish. List the directory for snapshot-<g> names; validation
  // happens at recover() time.
  std::uint64_t latest = 0;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return 0;
  while (const dirent* e = ::readdir(d)) {
    const char* name = e->d_name;
    if (std::strncmp(name, "snapshot-", 9) != 0) continue;
    char* end = nullptr;
    const unsigned long long g = std::strtoull(name + 9, &end, 10);
    if (end == name + 9 || *end != '\0') continue;  // skips snapshot-N.tmp
    if (g > latest) latest = g;
  }
  ::closedir(d);
  return latest;
}

void DurableStore::append(std::uint16_t type, std::string_view payload) {
  if (!wal_.is_open()) {
    throw std::runtime_error(
        "store: append before snapshot() — a session must open its "
        "generation with snapshot() first");
  }
  wal_.append(type, payload);
  ++appends_;
}

void DurableStore::flush() {
  if (wal_.is_open()) wal_.flush();
}

void DurableStore::snapshot(std::string_view image) {
  const std::uint64_t next = generation_ + 1;
  write_framed_file(snapshot_path(next), kSnapMagic, image);

  // The snapshot is durable: open the new generation's log, then retire the
  // old pair. A crash between these steps leaves extra files recover()
  // simply ignores.
  wal_.open(wal_path(next), options_.sync, options_.sync_every);
  if (generation_ > 0) {
    (void)std::remove(snapshot_path(generation_).c_str());
    (void)std::remove(wal_path(generation_).c_str());
  }
  generation_ = next;
  appends_ = 0;
}

StateStore::Recovered DurableStore::recover() const {
  Recovered out;
  // Highest generation whose snapshot validates wins; a corrupt top
  // generation (crash mid-publish) falls back to its predecessor.
  for (std::uint64_t g = scan_latest_generation(); g >= 1; --g) {
    if (read_framed_file(snapshot_path(g), kSnapMagic, out.snapshot) !=
        FrameCheck::kOk) {
      continue;
    }
    out.generation = g;
    WalReadResult wal = read_wal(wal_path(g));
    out.ops = std::move(wal.records);
    out.torn = wal.torn;
    return out;
  }
  return out;  // empty state: fresh directory
}

}  // namespace faucets::store

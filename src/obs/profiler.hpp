// Host-time executor profiler (DESIGN.md §12).
//
// Opt-in observability for the simulator's *own* wall clock — the same
// discipline the grid applies to simulated time (telemetry, spans, traces),
// pointed at the machine underneath. A Profiler owns one ProfilerLane: the
// engine wraps each event dispatch in one timestamp pair, the network tags
// the in-flight event with (MessageKind, entity class), and begin_run /
// end_run bracket the run's wall clock.
//
// Everything on the hot path writes into fixed preallocated POD arrays —
// zero allocations after construction (tests/obs/profiler_alloc_test.cpp
// pins this) — and nothing here touches sim-side state (registries, traces,
// spans, RNG, schedules), so report JSON and trace JSONL are byte-identical
// with profiling on or off.
//
// Timer reads go through HostClock, a calibrated TSC (x86-64) or
// steady_clock wrapper. An unprofiled run pays one null check per event.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <bit>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace faucets::obs {

/// Calibrated host clock: raw TSC on x86-64 (one ~20-cycle read per call),
/// steady_clock everywhere else. ns_per_tick() calibrates once per process
/// against steady_clock (~1 ms busy spin) so tick deltas convert to seconds.
struct HostClock {
  [[nodiscard]] static std::uint64_t ticks() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }
  [[nodiscard]] static double ns_per_tick();
  [[nodiscard]] static const char* source() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return "tsc";
#else
    return "steady_clock";
#endif
  }
};

/// Fixed-size log2 latency accumulator in clock ticks: bucket i counts
/// samples in [2^i, 2^(i+1)) ticks. POD, so recording is a handful of
/// integer ops and never allocates; conversion to seconds happens once at
/// export via HostClock::ns_per_tick().
struct ProfStats {
  static constexpr std::size_t kBuckets = 32;

  std::uint64_t count = 0;
  std::uint64_t total = 0;  // ticks
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void record(std::uint64_t t) noexcept {
    ++count;
    total += t;
    if (t < min) min = t;
    if (t > max) max = t;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(t | 1)) - 1;
    ++buckets[w < kBuckets ? w : kBuckets - 1];
  }

  void merge_from(const ProfStats& other) noexcept {
    count += other.count;
    total += other.total;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  }

  [[nodiscard]] std::uint64_t min_or_zero() const noexcept {
    return count == 0 ? 0 : min;
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(count);
  }
  /// q-quantile estimate in ticks: nearest-rank bucket, linear interpolation
  /// within the bucket's [2^i, 2^(i+1)) span, clamped to observed min/max.
  [[nodiscard]] double quantile_ticks(double q) const noexcept;
};

/// Coarse entity category for self-time attribution. Entities carry the raw
/// byte (sim::Entity::profile_class()); GridSystem assigns one per entity it
/// stands up when profiling is on, everything else reports as kOther.
enum class ProfClass : std::uint8_t {
  kOther = 0,
  kCentral,
  kAppSpector,
  kBroker,
  kDaemon,
  kClient,
};
inline constexpr std::size_t kProfClassCount = 6;
[[nodiscard]] const char* to_string(ProfClass c) noexcept;

/// Hot-path recorder. The engine drives begin_event/end_event around every
/// dispatched handler; the network tags the event in between. All fields
/// are plain PODs sized at construction — record paths never allocate.
class ProfilerLane {
 public:
  /// Kind slots: 0 = timer/no-message events, 1 + MessageKind otherwise.
  static constexpr std::size_t kKindSlots = 40;

  void begin_event() noexcept {
    kind_ = 0;
    cls_ = 0;
    start_ = HostClock::ticks();
  }
  void set_event_tag(std::size_t kind_slot, std::size_t cls) noexcept {
    kind_ = kind_slot < kKindSlots ? kind_slot : kKindSlots - 1;
    cls_ = cls < kProfClassCount ? cls : 0;
  }
  void end_event() noexcept {
    const std::uint64_t d = HostClock::ticks() - start_;
    by_kind_[kind_].record(d);
    by_class_[cls_].record(d);
    ++events_;
  }

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] const ProfStats& by_kind(std::size_t slot) const noexcept {
    return by_kind_[slot];
  }
  [[nodiscard]] const ProfStats& by_class(std::size_t cls) const noexcept {
    return by_class_[cls];
  }

 private:
  friend class Profiler;

  std::array<ProfStats, kKindSlots> by_kind_{};
  std::array<ProfStats, kProfClassCount> by_class_{};
  std::uint64_t events_ = 0;
  std::uint64_t start_ = 0;
  std::size_t kind_ = 0;
  std::size_t cls_ = 0;
};

/// The profiler: the lane plus run bracketing. It records only; callers
/// export after the run, through write_json (profile.json) and metrics(),
/// its OWN faucets_prof_* registry (never the simulation's).
class Profiler {
 public:
  Profiler();

  [[nodiscard]] ProfilerLane& lane(std::size_t = 0) noexcept { return lane_; }
  [[nodiscard]] const ProfilerLane& lane(std::size_t = 0) const noexcept { return lane_; }
  [[nodiscard]] static constexpr std::size_t lane_count() noexcept { return 1; }

  /// Display name for a kind slot ("RFB", "BID", ...; slot 0 = "timer").
  /// Called during setup, before the hot path starts.
  void set_kind_name(std::size_t slot, std::string name);

  void begin_run() noexcept;
  void end_run() noexcept;

  [[nodiscard]] double wall_seconds() const noexcept;
  [[nodiscard]] std::uint64_t events_total() const noexcept { return lane_.events_; }

  /// The faucets_prof_* registry, built from the raw accumulators on each
  /// call. Building the named instruments costs more than the whole hot
  /// path on a short run, so only exporters call it, after the run; export
  /// it with obs::write_prometheus like any other registry.
  [[nodiscard]] MetricsRegistry metrics() const;

  /// profile.json summary (schema 3).
  void write_json(std::ostream& os) const;

 private:
  ProfilerLane lane_;
  std::vector<std::string> kind_names_;
  std::uint64_t run_start_ = 0;
  std::uint64_t wall_ticks_ = 0;
};

}  // namespace faucets::obs

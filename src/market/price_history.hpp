// Contract price history and "grid weather" summaries (§5.2.1): the Faucets
// system maintains a history of every individual contract over recent time
// periods plus histogram summaries (e.g. grouped by the processors jobs
// need), which market-aware bid generators consume.
#pragma once

#include <deque>
#include <optional>

#include "src/util/ids.hpp"
#include "src/util/stats.hpp"

namespace faucets::store {
class StateStore;
class Encoder;
class Decoder;
}  // namespace faucets::store

namespace faucets::market {

/// One settled contract: what was paid per unit of work.
struct ContractRecord {
  double time = 0.0;
  ClusterId cluster;
  int procs = 0;             // minimum processors the job needed
  double work = 0.0;         // processor-seconds
  double price = 0.0;        // dollars (or SUs) actually charged
  [[nodiscard]] double unit_price() const noexcept {
    return work > 0.0 ? price / work : 0.0;
  }
};

/// Records are kept in arrival order, which is not time order: under
/// jitter a settlement can arrive after a later-dated one. Eviction goes by
/// arrival order (capacity drops the earliest arrival; the window drops
/// arrivals from the front while they are dated before the newest record's
/// time minus the window), and every query filters on record time, so no
/// result depends on the order.
///
/// Single-threaded: `average_unit_price` fills a memo through a const
/// call, so one history is read and written by one thread only (one grid
/// per thread; DESIGN.md §6.7).
class PriceHistory {
 public:
  explicit PriceHistory(std::size_t capacity = 4096, double window = 24.0 * 3600.0)
      : capacity_(capacity), window_(window) {}

  void record(ContractRecord record);

  /// Mean unit price over contracts settled in the last `window` seconds
  /// before `now`. nullopt when no history is available. Repeated queries
  /// are answered from a memo while they would average the same records
  /// (DESIGN.md §6.7), so the result is bit-equal to a fresh scan.
  [[nodiscard]] std::optional<double> average_unit_price(double now) const;

  /// Mean unit price restricted to jobs whose processor demand falls in
  /// [procs_lo, procs_hi] — the paper's histogram grouping by min/max
  /// processors needed.
  [[nodiscard]] std::optional<double> average_unit_price_for_size(double now,
                                                                  int procs_lo,
                                                                  int procs_hi) const;

  /// Histogram of unit prices over the current window (8 bins between the
  /// observed min and max).
  [[nodiscard]] Histogram unit_price_histogram(double now) const;

  /// Least-squares linear trend of unit price over the window:
  /// (price at `now`, slope per second). nullopt with fewer than 2 points.
  /// This is the "trends for future usage" feed of §5.2.1.
  [[nodiscard]] std::optional<std::pair<double, double>> unit_price_trend(
      double now) const;

  /// Extrapolated unit price at now + horizon (clamped to >= 0) — the
  /// "futures market for perishable commodities" signal of §1.
  [[nodiscard]] std::optional<double> forecast_unit_price(double now,
                                                          double horizon) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Unit price of the most recently settled contract (0 with no history) —
  /// the live "grid weather" signal the time-series sampler probes.
  [[nodiscard]] double last_unit_price() const noexcept {
    return records_.empty() ? 0.0 : records_.back().unit_price();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double window() const noexcept { return window_; }

  /// Store wiring (op 0x0401, DESIGN.md §14).
  void set_store(store::StateStore* store) noexcept { store_ = store; }
  /// Encodes the bounded deque.
  void save(store::Encoder& out) const;
  void load(store::Decoder& in);
  bool apply_op(std::uint16_t type, store::Decoder& in);

 private:
  void push(const ContractRecord& record);

  /// The last average_unit_price scan: its query time `at`, the earliest
  /// time among the records it averaged (`lo`) and among the records dated
  /// after `at` (`hi`). Any mutation clears `valid`.
  struct AverageMemo {
    bool valid = false;
    double at = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::optional<double> value;
  };

  std::size_t capacity_;
  double window_;
  std::deque<ContractRecord> records_;  // arrival order
  mutable AverageMemo memo_;
  store::StateStore* store_ = nullptr;
};

}  // namespace faucets::market

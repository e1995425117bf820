// MetricsRegistry: counters, gauges, and fixed-bucket histograms that every
// layer of the grid registers into through SimContext.
//
// Entities look metrics up by name once (construction time) and keep the
// returned reference; observation is then a branch-free increment. Names
// follow the Prometheus convention and may carry a label set in braces —
// `faucets_job_wait_seconds{cluster="turing"}` — which the text exporter
// emits verbatim. Re-registering a name returns the existing instrument, so
// several entities can share one grid-wide counter.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace faucets::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Gauges accumulate with Neumaier compensated summation: (value_, comp_)
/// behaves as a double-double accumulator, so sums of many small, similarly
/// scaled values (e.g. per-job revenue) keep the low-order bits a naive
/// running double would round away.
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    comp_ = 0.0;
  }
  void add(double v) noexcept {
    const double t = value_ + v;
    if (std::abs(value_) >= std::abs(v)) {
      comp_ += (value_ - t) + v;
    } else {
      comp_ += (v - t) + value_;
    }
    value_ = t;
  }
  [[nodiscard]] double value() const noexcept { return value_ + comp_; }

 private:
  double value_ = 0.0;
  double comp_ = 0.0;
};

/// Fixed-bucket histogram. `bounds` are ascending inclusive upper edges; one
/// implicit overflow bucket catches everything above the last bound. The
/// quantile estimate interpolates linearly inside the containing bucket and
/// is exact at the bucket edges, so its error is bounded by bucket width.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

  void observe(double v) noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    add_sum(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_ + sum_comp_; }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
  }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; index bounds().size() is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  /// Lower/upper value edges of bucket `i`, clamped to observed min/max so
  /// quantile estimates never leave the observed range.
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept {
    return i == 0 ? min() : std::max(min(), bounds_[i - 1]);
  }
  [[nodiscard]] double bucket_hi(std::size_t i) const noexcept {
    return i < bounds_.size() ? std::min(max(), bounds_[i]) : max();
  }

  /// Estimate the q-quantile (q in [0,1]) of everything observed. Uses the
  /// nearest-rank bucket and interpolates linearly within it; the overflow
  /// bucket reports between its lower edge and the observed maximum.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: the k-th smallest sample with k in [1, count].
    const auto rank = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      if (cum + buckets_[i] >= rank) {
        const double lo = bucket_lo(i);
        const double hi = std::max(bucket_hi(i), lo);
        const double within = static_cast<double>(rank - cum) /
                              static_cast<double>(buckets_[i]);
        return lo + (hi - lo) * within;
      }
      cum += buckets_[i];
    }
    return max();
  }

  /// Fold pre-aggregated observations in one call (the host-time profiler's
  /// POD tick histograms publish this way when Profiler::metrics() builds
  /// its registry): `counts[i]` samples land in bucket i (anything past the
  /// end goes to the overflow bucket), plus the summary moments of those
  /// samples.
  void fold_prebinned(const std::uint64_t* counts, std::size_t n, double sum,
                      double mn, double mx) noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      buckets_[std::min(i, buckets_.size() - 1)] += counts[i];
      total += counts[i];
    }
    count_ += total;
    add_sum(sum);
    if (total > 0) {
      min_ = std::min(min_, mn);
      max_ = std::max(max_, mx);
    }
  }

 private:
  /// Neumaier compensated accumulation into (sum_, sum_comp_) — the same
  /// scheme Gauge uses.
  void add_sum(double v) noexcept {
    const double t = sum_ + v;
    if (std::abs(sum_) >= std::abs(v)) {
      sum_comp_ += (sum_ - t) + v;
    } else {
      sum_comp_ += (v - t) + sum_;
    }
    sum_ = t;
  }

  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_comp_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// `count` ascending edges starting at `start`, each `factor` times the last.
[[nodiscard]] std::vector<double> exponential_buckets(double start, double factor,
                                                      std::size_t count);
/// `count` ascending edges `start, start+width, ...`.
[[nodiscard]] std::vector<double> linear_buckets(double start, double width,
                                                 std::size_t count);

/// Insertion-ordered registry. Instruments live behind unique_ptr so the
/// references handed out stay valid as the registry grows.
class MetricsRegistry {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  Counter& counter(const std::string& name, std::string help = "");
  Gauge& gauge(const std::string& name, std::string help = "");
  /// `bounds` are used only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       std::string help = "");

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// The value of a counter, 0 when it was never registered.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    const Counter* c = find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  struct Entry {
    std::string name;  // full name including any {label="..."} suffix
    std::string help;
    Type type;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Visit every instrument in registration order (exporters rely on the
  /// deterministic order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : entries_) {
      Entry view{e.name, e.help, e.type, e.counter.get(), e.gauge.get(),
                 e.histogram.get()};
      fn(view);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Make this registry a value copy of `src`, whose first size() entries
  /// must be this registry's (a snapshot of an earlier `src`: registries
  /// only grow). Entries registered since are cloned, then every instrument
  /// is copy-assigned, which allocates nothing when `src` did not grow.
  void refresh_from(const MetricsRegistry& src);

 private:
  struct Owned {
    std::string name;
    std::string help;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Owned* find_entry(const std::string& name, Type type);
  [[nodiscard]] const Owned* find_entry(const std::string& name) const;

  std::vector<Owned> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace faucets::obs

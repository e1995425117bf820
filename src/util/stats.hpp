// Online statistics, histograms and percentile summaries used by the
// scheduler metrics, the market price history and the benchmark harnesses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace faucets {

/// Numerically stable running mean/variance (Welford), plus min/max.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double sum() const noexcept { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile summary: stores every sample. Fine for simulation-scale
/// data (up to a few million points).
class Samples {
 public:
  void add(double x) { data_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { data_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double sum() const noexcept;

  /// Linear-interpolation percentile, p in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double min() const { return percentile(0.0); }
  [[nodiscard]] double max() const { return percentile(100.0); }

  [[nodiscard]] const std::vector<double>& values() const noexcept { return data_; }

 private:
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi); samples outside are clamped into the
/// first/last bin. The market's "grid weather" summaries (§5.2.1 of the
/// paper) are built from these.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count_in_bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Render as a compact single-line summary, e.g. for AppSpector displays.
  [[nodiscard]] std::string to_string() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// busy processors over time. The signal's value is set at time points; the
/// mean is weighted by how long each value was held.
class TimeWeightedStats {
 public:
  /// Record that the signal takes `value` starting at `time`. Times must be
  /// non-decreasing.
  void record(double time, double value) noexcept;
  /// Close the signal at `end_time` so the final segment is counted.
  void finish(double end_time) noexcept;

  [[nodiscard]] double time_weighted_mean() const noexcept;
  [[nodiscard]] double duration() const noexcept { return last_time_ - start_time_; }
  [[nodiscard]] bool started() const noexcept { return started_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double last_value_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace faucets

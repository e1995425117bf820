#include "src/util/stats.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

namespace faucets {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
}

double Samples::mean() const noexcept {
  if (data_.empty()) return 0.0;
  return sum() / static_cast<double>(data_.size());
}

double Samples::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Samples::percentile(double p) const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  if (data_.size() == 1) return data_.front();
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(data_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= data_.size()) return data_.back();
  return data_[lo] + frac * (data_[lo + 1] - data_[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::size_t idx = 0;
  if (width > 0 && x > lo_) {
    idx = static_cast<std::size_t>((x - lo_) / width);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  ++counts_[idx];
  ++total_;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i != 0) os << " ";
    os << counts_[i];
  }
  os << "]";
  return os.str();
}

void TimeWeightedStats::record(double time, double value) noexcept {
  if (!started_) {
    started_ = true;
    start_time_ = last_time_ = time;
    last_value_ = value;
    return;
  }
  if (time > last_time_) {
    weighted_sum_ += last_value_ * (time - last_time_);
    last_time_ = time;
  }
  last_value_ = value;
}

void TimeWeightedStats::finish(double end_time) noexcept {
  if (!started_) return;
  if (end_time > last_time_) {
    weighted_sum_ += last_value_ * (end_time - last_time_);
    last_time_ = end_time;
  }
}

double TimeWeightedStats::time_weighted_mean() const noexcept {
  const double d = duration();
  return d <= 0.0 ? last_value_ : weighted_sum_ / d;
}

}  // namespace faucets

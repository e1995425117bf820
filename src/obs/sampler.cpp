#include "src/obs/sampler.hpp"

#include <algorithm>
#include <utility>

namespace faucets::obs {

namespace {
/// Buffers compact by pair-merge, so capacities must be even and hold at
/// least one merged pair.
std::size_t normalize_capacity(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  return capacity + (capacity & 1);
}
}  // namespace

Series::Series(std::string name, std::string unit, Probe probe,
               std::size_t capacity)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      probe_(std::move(probe)),
      capacity_(normalize_capacity(capacity)) {
  points_.reserve(capacity_);
}

double Series::value_min() const noexcept {
  double lo = 0.0;
  bool first = true;
  for (const SamplePoint& p : points_) {
    lo = first ? p.min : std::min(lo, p.min);
    first = false;
  }
  return lo;
}

double Series::value_max() const noexcept {
  double hi = 0.0;
  bool first = true;
  for (const SamplePoint& p : points_) {
    hi = first ? p.max : std::max(hi, p.max);
    first = false;
  }
  return hi;
}

void Series::observe(double t, double v) noexcept {
  ++observations_;
  if (acc_.count == 0) {
    acc_.t_begin = t;
    acc_.min = v;
    acc_.max = v;
    acc_.sum = 0.0;
  }
  acc_.t_end = t;
  acc_.min = std::min(acc_.min, v);
  acc_.max = std::max(acc_.max, v);
  acc_.sum += v;
  ++acc_.count;
  if (acc_.count >= stride_) flush_accumulator();
}

void Series::flush_accumulator() noexcept {
  if (acc_.count == 0) return;
  if (points_.size() == capacity_) compact();
  // reserve() ran at construction, so this push_back never reallocates.
  points_.push_back(acc_);
  acc_ = SamplePoint{};
}

void Series::compact() noexcept {
  // Merge adjacent pairs in place: resolution halves, coverage is kept.
  const std::size_t half = points_.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const SamplePoint& a = points_[2 * i];
    const SamplePoint& b = points_[2 * i + 1];
    SamplePoint merged;
    merged.t_begin = a.t_begin;
    merged.t_end = b.t_end;
    merged.min = std::min(a.min, b.min);
    merged.max = std::max(a.max, b.max);
    merged.sum = a.sum + b.sum;
    merged.count = a.count + b.count;
    points_[i] = merged;
  }
  points_.resize(half);
  stride_ *= 2;
}

std::size_t Sampler::add_series(std::string name, Series::Probe probe,
                                std::string unit, std::size_t capacity) {
  series_.emplace_back(std::move(name), std::move(unit), std::move(probe),
                       capacity);
  return series_.size() - 1;
}

void Sampler::sample(double now) noexcept {
  ++samples_;
  for (Series& s : series_) s.observe(now, s.probe_());
}

const Series* Sampler::find(std::string_view name) const {
  for (const Series& s : series_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

}  // namespace faucets::obs

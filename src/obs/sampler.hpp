// Time-series sampling of grid signals.
//
// A Sampler holds named Series, each backed by a fixed-capacity downsampling
// buffer: points are appended at the current resolution until the buffer is
// full, then adjacent pairs are merged in place (min/max/sum/count survive
// the merge) and the accumulation stride doubles. A series therefore always
// covers the whole run at a bounded memory footprint — early samples lose
// resolution, never existence — which is exactly what the HTML report's
// charts want.
//
// Probes are registered once, before the run (that allocates); from then
// on Sampler::sample() is zero-allocation: it invokes each probe and folds
// the value into preallocated storage. The guarantee is pinned by
// tests/obs/sampler_alloc_test.cpp with the same counting-operator-new
// technique as the trace ring and fault injector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace faucets::obs {

/// One downsampled bucket of a series: the aggregate of `count` raw samples
/// taken over [t_begin, t_end].
struct SamplePoint {
  double t_begin = 0.0;
  double t_end = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint32_t count = 0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// A named signal with its downsampling buffer. Buffers never grow past
/// `capacity` points; when full they compact to half and the stride doubles.
class Series {
 public:
  using Probe = std::function<double()>;

  Series(std::string name, std::string unit, Probe probe, std::size_t capacity);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& unit() const noexcept { return unit_; }
  [[nodiscard]] const std::vector<SamplePoint>& points() const noexcept {
    return points_;
  }
  /// Raw samples folded into each emitted point at the current resolution.
  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total raw observations ever folded in (monotone).
  [[nodiscard]] std::uint64_t observations() const noexcept { return observations_; }

  /// Smallest / largest mean over the emitted points (0 when empty).
  [[nodiscard]] double value_min() const noexcept;
  [[nodiscard]] double value_max() const noexcept;

  /// Fold one raw sample in. Never allocates once constructed.
  void observe(double t, double v) noexcept;

 private:
  friend class Sampler;

  void flush_accumulator() noexcept;
  void compact() noexcept;

  std::string name_;
  std::string unit_;
  Probe probe_;
  std::size_t capacity_;       // even, >= 2
  std::vector<SamplePoint> points_;  // reserved to capacity_ up front
  SamplePoint acc_{};          // partial bucket being filled
  std::uint32_t stride_ = 1;   // raw samples per emitted point
  std::uint64_t observations_ = 0;
};

/// The per-run sampler. GridSystem owns it, registers every series when
/// sampling is on, and samples it from its run loop after the first
/// dispatched event past each sample interval; it schedules no engine event
/// of its own (DESIGN.md §10.1).
class Sampler {
 public:
  /// Register a probe under `name` (Prometheus-style, may carry a label
  /// block) with a budget of `capacity` points. Returns the series index.
  std::size_t add_series(std::string name, Series::Probe probe,
                         std::string unit = "", std::size_t capacity = 512);

  /// Take one snapshot of every registered signal at simulated time `now`.
  /// Zero-allocation in steady state.
  void sample(double now) noexcept;

  [[nodiscard]] std::size_t series_count() const noexcept { return series_.size(); }
  [[nodiscard]] const Series& series(std::size_t i) const { return series_[i]; }
  [[nodiscard]] const Series* find(std::string_view name) const;
  [[nodiscard]] std::uint64_t samples_taken() const noexcept { return samples_; }
  [[nodiscard]] bool empty() const noexcept { return series_.empty(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Series& s : series_) fn(s);
  }

 private:
  std::vector<Series> series_;
  std::uint64_t samples_ = 0;
};

}  // namespace faucets::obs

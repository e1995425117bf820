// Deterministic random number generation for reproducible experiments.
//
// The simulator must produce identical results for identical seeds across
// platforms, so we implement our own generator (xoshiro256**) and sampling
// routines instead of relying on the unspecified algorithms behind
// std::*_distribution.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace faucets {

/// SplitMix64 finalizer: bijective 64-bit mixing, the same construction the
/// Rng below uses to expand its seed. Exposed so seed derivation and RNG
/// seeding share one primitive.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic seed derivation for parameter sweeps: run (grid point p,
/// replicate r) of a sweep rooted at `root` always gets the same seed, no
/// matter how many worker threads execute the sweep or in what order runs
/// complete. The derivation chains SplitMix64 over (root, p, r) with
/// distinct salts so neighbouring points and replicates land in unrelated
/// parts of the sequence (a plain `root + p * R + r` offset would hand
/// adjacent runs overlapping xoshiro streams).
class SeedSequence {
 public:
  constexpr explicit SeedSequence(std::uint64_t root) noexcept : root_(root) {}

  [[nodiscard]] constexpr std::uint64_t root() const noexcept { return root_; }

  /// Seed for replicate `replicate` of grid point `point`. Pure function of
  /// (root, point, replicate): stable across processes, thread counts, and
  /// execution order.
  [[nodiscard]] constexpr std::uint64_t at(std::uint64_t point,
                                           std::uint64_t replicate) const noexcept {
    std::uint64_t z = splitmix64(root_ ^ 0x8c2f9d7845aa1b3dULL);
    z = splitmix64(z ^ splitmix64(point ^ 0x1f83d9abfb41bd6bULL));
    z = splitmix64(z ^ splitmix64(replicate ^ 0x5be0cd19137e2179ULL));
    return z;
  }

 private:
  std::uint64_t root_;
};

/// xoshiro256** by Blackman & Vigna: fast, high quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  /// Re-initialize state from a single seed via SplitMix64, as recommended
  /// by the xoshiro authors.
  void reseed(std::uint64_t seed) noexcept {
    auto splitmix = [&seed]() noexcept {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& s : state_) s = splitmix();
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so the class also works with <random>.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    // Lemire's multiply-shift rejection method for unbiased bounded ints.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) {
      const std::uint64_t threshold = -range % range;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean (= 1/rate). Used for Poisson arrivals.
  [[nodiscard]] double exponential(double mean) noexcept {
    return -mean * std::log1p(-uniform());
  }

  /// Standard normal via Box-Muller (single value; we do not cache the pair
  /// so the stream stays easy to reason about).
  [[nodiscard]] double normal() noexcept {
    const double u1 = 1.0 - uniform();  // (0, 1]
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  }

  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal parameterized by the underlying normal's mu/sigma. Job work
  /// sizes in parallel workloads are classically lognormal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace faucets

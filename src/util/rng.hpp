// Deterministic, seedable random number generation for simulation and ML.
//
// We use xoshiro256** (Blackman & Vigna) seeded through SplitMix64 rather
// than std::mt19937 because (1) its state is small enough to copy freely
// when forking per-job streams, and (2) its output is identical across
// standard libraries, which keeps experiments reproducible bit-for-bit.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace iotax::util {

/// SplitMix64 generator; used to expand a single 64-bit seed into the
/// xoshiro state and useful on its own for hashing counters into seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions and std::shuffle, but the members below avoid the
/// libstdc++-specific value sequences of std:: distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1234abcdULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  // next() and uniform() are inline: training loops draw one per
  // dropout unit, and a call per draw costs more than the draw.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Fork an independent stream; `stream` values give distinct streams.
  Rng fork(std::uint64_t stream) const;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached second variate).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);
  /// Student-t variate with `df` degrees of freedom (df > 0).
  double student_t(double df);
  /// Gamma variate, shape k > 0, scale theta > 0 (Marsaglia-Tsang).
  double gamma(double shape, double scale);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Poisson variate (Knuth for small mean, normal approx for large).
  std::int64_t poisson(double mean);
  /// Zipf-like heavy-tailed integer in [0, n) with exponent s >= 0.
  /// s == 0 degenerates to uniform. Uses inverse-CDF on precomputable
  /// weights only for small n; otherwise rejection sampling.
  std::int64_t zipf(std::int64_t n, double s);

  /// Index into a discrete distribution given non-negative weights.
  std::size_t categorical(std::span<const double> weights);

  /// Sample k distinct indices from [0, n) (k <= n), order unspecified.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  template <typename T>
  const T& choice(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace iotax::util

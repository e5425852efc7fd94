// Deterministic random-number helpers.
//
// Every data generator in the repository takes an explicit seed so that
// experiments regenerate bit-identically; this wraps std::mt19937_64 with
// the handful of draw shapes the emulators need.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace adr {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : eng_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(eng_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(eng_);
  }

  /// Gaussian draw.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(eng_);
  }

  /// Exponential draw with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(eng_);
  }

  /// Bernoulli draw.
  bool chance(double p) { return std::bernoulli_distribution(p)(eng_); }

  /// Index drawn proportionally to non-negative weights.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), eng_);
  }

  /// Derives an independent child generator (for per-chunk streams).
  Rng fork() { return Rng(eng_()); }

  std::mt19937_64& engine() { return eng_; }

 private:
  std::mt19937_64 eng_;
};

/// One splitmix64 step: advances `state` by the golden-ratio increment
/// and returns the finalized draw.  Cheap and trivially replayable: the
/// k-th draw of a stream is a pure function of its initial state.  Fault
/// points and retry jitter both draw from it.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of one splitmix64 step.
inline double splitmix_unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Stable 64-bit hash combiner (splitmix64 finalizer) for deriving seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace adr

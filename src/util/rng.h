// rng.h — deterministic, fast pseudo-random number generation.
//
// The whole reproduction is required to be bit-deterministic for a given
// seed (DESIGN.md §4.6): idle deadlines tie-break deterministically and
// every stochastic choice flows through this generator. We implement
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64 rather than relying
// on std::mt19937 so that the stream is identical across standard libraries.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace pr {

/// SplitMix64's Weyl increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 (Steele, Lea & Flood): the finalizer applied to `x` advanced
/// by one gamma step. The one copy of the mixer: Rng seeding, the
/// reservoir's index stream and every derived shard/plan seed call it, so
/// the seed-layout and preset-stream goldens pin its bits.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 — public-domain algorithm, 256-bit state, period 2^256−1.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = kSplitMixGamma) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via SplitMix64, which
  /// guarantees a well-mixed non-zero state for any seed, including 0.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += kSplitMixGamma;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
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

  /// Uniform double in [0, 1). Uses the top 53 bits.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Exponentially distributed sample with the given mean (> 0).
  double exponential(double mean) {
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - uniform());
  }

  /// Standard normal via Box–Muller (single value; the pair's twin is
  /// discarded to keep the generator state independent of call history
  /// shape — determinism beats a factor of two here).
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Log-normal sample parameterised by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    const auto n = c.size();
    if (n < 2) return;
    for (std::size_t i = n - 1; i > 0; --i) {
      const std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// A decorrelated child generator (for per-worker streams in sweeps).
  Rng split() { return Rng((*this)() ^ 0xA3EC647659359ACDULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace pr

// Deterministic, seedable random number generation for reproducible
// experiments.  All randomized algorithms and generators in tgroom take a
// `Rng&` so that a single seed fixes an entire experiment run.
//
// The engine is xoshiro256** (public domain, Blackman & Vigna), seeded via
// splitmix64 so that small consecutive seeds give decorrelated streams.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace tgroom {

/// splitmix64 step; used for seeding and as a cheap standalone mixer.
/// Inline so that independent chains (the fingerprint's lanes) interleave.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with a std::uniform_random_bit_generator interface.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform integer in [0, bound), bound > 0.  Uses Lemire rejection to
  /// avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform01() < p; }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    using std::swap;
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      swap(c[i - 1], c[j]);
    }
  }

  /// Derive an independent child stream (for per-task RNGs in sweeps).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace tgroom

#pragma once
// Deterministic pseudo-random number generation for MegaTE.
//
// Every stochastic component of the library (topology generation, traffic
// matrices, failure injection, query-time jitter) takes an explicit seed so
// that experiments are reproducible bit-for-bit across runs.  The engine is
// xoshiro256** (Blackman & Vigna), which is fast, has a 256-bit state and
// passes BigCrush; we do not use std::mt19937 because its state is large and
// its distribution implementations differ across standard libraries, which
// would break cross-platform reproducibility of the benchmark tables.

#include <cstdint>
#include <limits>
#include <string_view>

namespace megate::util {

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word. Hashing
/// word-at-a-time (one mix + combine per word) instead of byte-wise FNV
/// keeps the per-solve fingerprints a fraction of the work they guard.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Byte-wise 64-bit FNV-1a continuing from `h` (kFnv1aBasis to start):
/// the digest of a run's text and words (chaos and demand fingerprints).
/// A word is hashed as its 8 bytes, least significant first.
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}
constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = (h ^ ((word >> shift) & 0xFF)) * 0x100000001B3ULL;
  }
  return h;
}

/// xoshiro256** deterministic random engine.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, but callers should
/// prefer the explicit member samplers below which are stable across
/// platforms (unlike std::*_distribution).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64 random bits.
  std::uint64_t operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal() noexcept;
  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Weibull(shape k, scale lambda) via inverse transform.
  /// Used to model the endpoints-per-site distribution (paper Fig. 8).
  double weibull(double shape, double scale) noexcept;

  /// Lognormal(mu, sigma) via exp(normal).  Models heavy-tailed endpoint
  /// flow demands.
  double lognormal(double mu, double sigma) noexcept;

  /// Creates an independent stream (jump-free fork via splitmix64 of a
  /// freshly drawn value mixed with the stream id).
  Rng fork(std::uint64_t stream_id) noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace megate::util

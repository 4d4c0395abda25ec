#include "megate/util/rng.h"

#include <cmath>
#include <numbers>

namespace megate::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  return mix64(x);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // A state of all zeros is invalid for xoshiro; splitmix64 cannot produce
  // four consecutive zeros, but guard anyway for belt-and-braces safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t range = hi - lo + 1;
  if (range == 0) return next();  // full 64-bit range requested
  // Lemire's unbiased bounded generation (rejection on the low word).
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
  return lo + static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  // Box-Muller; draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::weibull(double shape, double scale) noexcept {
  double u = 1.0 - uniform();  // (0, 1]
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

Rng Rng::fork(std::uint64_t stream_id) noexcept {
  // Mix a fresh draw with the stream id so forked streams are independent
  // of each other and of the parent's future output.
  return Rng(next() ^ (stream_id * 0xD2B74407B1CE6E93ULL + 0x632BE59BD9B4E019ULL));
}

}  // namespace megate::util

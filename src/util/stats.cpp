#include "megate/util/stats.h"

#include <algorithm>

namespace megate::util {

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> xs) {
  std::vector<std::pair<double, double>> cdf;
  if (xs.empty()) return cdf;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Collapse runs of equal values to one step at the run's end.
    if (i + 1 < sorted.size() && sorted[i + 1] == sorted[i]) continue;
    cdf.emplace_back(sorted[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

}  // namespace megate::util

#pragma once
// Small descriptive-statistics helpers shared by the simulator and the
// benchmark harnesses (percentiles for latency plots, CDFs for Fig. 8, ...).

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace megate::util {

/// p-th percentile (p in [0,100]) using linear interpolation between order
/// statistics (the "linear" / type-7 method used by numpy). The input does
/// not need to be sorted. Empty input returns 0.
double percentile(std::span<const double> xs, double p);

/// Empirical CDF evaluated at `points.size()` equally informative steps:
/// returns (value, P[X <= value]) pairs for every distinct sorted sample.
std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> xs);

}  // namespace megate::util

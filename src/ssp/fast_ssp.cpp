#include "megate/ssp/fast_ssp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace megate::ssp {
namespace {

/// Floor for delta so pathological tiny F never explodes the DP table.
constexpr double kMinResolution = 1e-6;

}  // namespace

Selection fast_ssp(std::span<const double> values, double capacity,
                   const FastSspOptions& options, FastSspStats* stats) {
  if (stats) *stats = FastSspStats{};
  Selection sel;
  if (values.empty() || capacity <= 0.0) return sel;
  const double eps = options.epsilon_prime;
  if (!(eps > 0.0) || eps >= 1.0) {
    throw std::invalid_argument("epsilon_prime must be in (0, 1)");
  }

  // Items larger than the capacity can never be chosen; drop them up front
  // so they neither join clusters nor the residual pass.
  std::vector<std::size_t> usable;
  usable.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0.0) throw std::invalid_argument("values must be >= 0");
    if (values[i] > 0.0 && values[i] <= capacity) usable.push_back(i);
  }
  if (usable.empty()) return sel;

  // --- Step 1: clustering --------------------------------------------
  // M = eps'*F/3. Demands >= M form singleton clusters; smaller demands
  // are packed (largest-first for tight clusters) until a bin reaches M.
  const double big_m = eps * capacity / 3.0;
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<double> cluster_sums;
  {
    std::vector<std::size_t> small;
    for (std::size_t i : usable) {
      if (values[i] >= big_m) {
        clusters.push_back({i});
        cluster_sums.push_back(values[i]);
      } else {
        small.push_back(i);
      }
    }
    std::sort(small.begin(), small.end(), [&](std::size_t a, std::size_t b) {
      return values[a] > values[b];
    });
    std::vector<std::size_t> bin;
    double bin_sum = 0.0;
    for (std::size_t i : small) {
      // A bin may only grow while staying <= capacity, otherwise the DP
      // could never select it.
      if (bin_sum + values[i] > capacity && !bin.empty()) {
        clusters.push_back(std::move(bin));
        cluster_sums.push_back(bin_sum);
        bin = {};
        bin_sum = 0.0;
      }
      bin.push_back(i);
      bin_sum += values[i];
      if (bin_sum >= big_m) {
        clusters.push_back(std::move(bin));
        cluster_sums.push_back(bin_sum);
        bin = {};
        bin_sum = 0.0;
      }
    }
    // A final under-threshold bin stays out of the DP: its members are
    // exactly the "minor flows" that the greedy residual pass (step 4)
    // picks up, since they are never marked as taken here.
  }

  // --- Step 2: normalization -------------------------------------------
  // delta = eps'*M/3 = eps'^2*F/9; clusters are quantized by delta inside
  // the DP (solve_dp floors; the trim step keeps the result feasible).
  const double delta = std::max(kMinResolution, eps * big_m / 3.0);

  // --- Step 3: DP over clusters ------------------------------------------
  Selection dp_sel;
  if (!clusters.empty()) {
    dp_sel = solve_dp(cluster_sums, capacity, delta);
  }
  std::vector<char> taken(values.size(), 0);
  double dp_total = 0.0;
  std::size_t dp_flows = 0;
  for (std::size_t ci : dp_sel.indices) {
    for (std::size_t i : clusters[ci]) {
      taken[i] = 1;
      dp_total += values[i];
      ++dp_flows;
    }
  }

  // --- Step 4: sorted greedy over residual flows -------------------------
  // Residual set = usable flows not chosen via a DP cluster; residual
  // bandwidth R = F - dp_total.
  std::vector<std::size_t> residual_ids;
  std::vector<double> residual_vals;
  for (std::size_t i : usable) {
    if (!taken[i]) {
      residual_ids.push_back(i);
      residual_vals.push_back(values[i]);
    }
  }
  const double residual_cap = capacity - dp_total;
  Selection greedy_sel = solve_greedy(residual_vals, residual_cap);
  for (std::size_t pos : greedy_sel.indices) taken[residual_ids[pos]] = 1;

  sel.total = dp_total + greedy_sel.total;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (taken[i]) sel.indices.push_back(i);
  }

  if (stats) {
    stats->num_clusters = clusters.size();
    stats->threshold = big_m;
    stats->resolution = delta;
    stats->dp_selected = dp_flows;
    stats->greedy_selected = greedy_sel.indices.size();
    // beta <= min(unallocated demand)/F; 0 when everything fit.
    double min_left = std::numeric_limits<double>::infinity();
    bool any_left = false;
    for (std::size_t i : usable) {
      if (!taken[i]) {
        any_left = true;
        min_left = std::min(min_left, values[i]);
      }
    }
    stats->error_bound = any_left ? min_left / capacity : 0.0;
  }
  return sel;
}

}  // namespace megate::ssp

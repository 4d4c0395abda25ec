#include "megate/lp/packing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "megate/obs/metrics.h"
#include "megate/obs/span.h"

namespace megate::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Model flattened to profit-normalized structure-of-arrays form: kept
/// columns (positive profit, no zero-capacity row) as a CSR slab whose
/// coefficients are divided by the column's profit, so every column has
/// unit profit and the classic GK threshold-1 stopping rule applies
/// uniformly.
struct Flat {
  std::size_t nc = 0;                  ///< kept columns
  std::vector<double> profit;          ///< [nc] original objective coef
  std::vector<std::uint32_t> id;       ///< [nc] original variable index
  std::vector<std::uint32_t> col_ptr;  ///< [nc + 1]
  std::vector<std::uint32_t> rows;     ///< [nnz]
  std::vector<double> coefs;           ///< [nnz] a_ij / c_j
  bool unbounded = false;  ///< positive profit with an empty column
};

Flat flatten(const Model& model) {
  Flat f;
  const std::size_t n = model.num_variables();
  f.col_ptr.push_back(0);
  for (std::size_t j = 0; j < n; ++j) {
    const double profit = model.objective_coef(j);
    if (profit <= 0.0) continue;  // never helps a max objective
    const Model::ColumnView col = model.column(j);
    if (col.empty()) {
      f.unbounded = true;  // positive profit, no constraint
      return f;
    }
    bool dead = false;
    for (std::size_t p = 0; p < col.size(); ++p) {
      if (model.rhs(col.row(p)) <= 0.0) {
        dead = true;  // uses a zero-capacity row: pinned to x_j = 0
        break;
      }
    }
    if (dead) continue;
    f.profit.push_back(profit);
    f.id.push_back(static_cast<std::uint32_t>(j));
    for (std::size_t p = 0; p < col.size(); ++p) {
      f.rows.push_back(static_cast<std::uint32_t>(col.row(p)));
      f.coefs.push_back(col.coef(p) / profit);
    }
    f.col_ptr.push_back(static_cast<std::uint32_t>(f.rows.size()));
  }
  f.nc = f.profit.size();
  return f;
}

/// True when the options violate a solver precondition.
bool options_invalid(const PackingOptions& o) noexcept {
  // !(eps > 0) also catches NaN; eps >= 0.5 breaks the (1-3eps) bound.
  if (!(o.epsilon > 0.0) || o.epsilon >= 0.5) return true;
  // A zero-step budget can never route anything; reporting the all-zero
  // iterate as kOptimal would be a silent lie.
  if (o.max_iterations == 0) return true;
  return false;
}

/// Total routing-step cap: each step multiplies its bottleneck row's
/// length by (1+eps) and lengths grow by at most ~1/delta overall, so
/// steps are O(m log(m)/e^2).
std::size_t step_cap(const PackingOptions& o, double md,
                     double delta) noexcept {
  if (o.max_iterations != PackingOptions::kAutoIterations) {
    return o.max_iterations;
  }
  const std::size_t theory = static_cast<std::size_t>(
      md * (std::log(1.0 / delta) / std::log1p(o.epsilon)) * 2.0 + 64.0);
  return std::max<std::size_t>(theory, 1u << 20);
}

}  // namespace

Solution PackingSolver::solve(const Model& model) const {
  Solution sol;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  sol.x.assign(n, 0.0);
  last_dual_bound_ = 0.0;

  const double eps = options_.epsilon;
  if (options_invalid(options_)) {
    sol.status = Status::kInvalidModel;
    return sol;
  }

  obs::MetricsRegistry* reg = options_.metrics;
  std::optional<obs::Span> solve_span;
  if (reg != nullptr) solve_span.emplace(*reg, "lp.packing");

  std::optional<obs::Span> section;
  if (reg != nullptr) section.emplace(*reg, "flatten");
  const Flat f = flatten(model);
  section.reset();
  if (f.unbounded) {
    sol.status = Status::kUnbounded;
    return sol;
  }
  if (f.nc == 0) {
    sol.status = Status::kOptimal;
    return sol;
  }

  const double md = static_cast<double>(m);
  const double delta = (1.0 + eps) * std::pow((1.0 + eps) * md, -1.0 / eps);
  const std::size_t max_steps = step_cap(options_, md, delta);

  std::vector<double> y(m);      // dual lengths
  std::vector<double> inv_b(m);  // 1/b_i, hoisted out of the hot loops
  for (std::size_t i = 0; i < m; ++i) {
    inv_b[i] = 1.0 / model.rhs(i);
    y[i] = delta * inv_b[i];
  }
  std::vector<double> raw(n, 0.0);  // unscaled primal (profit-scaled units)

  const std::uint32_t* cp = f.col_ptr.data();
  const std::uint32_t* rw = f.rows.data();
  const double* cf = f.coefs.data();

  auto length_of = [&](std::size_t c) {
    double len = 0.0;
    for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
      len += cf[p] * y[rw[p]];
    }
    return len;
  };

  // --- Fleischer phases --------------------------------------------------
  // Phase threshold alpha*(1+eps); each phase walks the columns in index
  // order and routes a column's bottleneck amount while its length stays
  // under the threshold.
  if (reg != nullptr) section.emplace(*reg, "phases");
  double alpha = kInf;
  for (std::size_t c = 0; c < f.nc; ++c) {
    alpha = std::min(alpha, length_of(c));
  }
  std::size_t steps = 0;
  std::uint64_t phases = 0;
  bool hit_limit = false;

  while (alpha < 1.0 && !hit_limit) {
    const double threshold = std::min(1.0, alpha * (1.0 + eps));
    for (std::size_t c = 0; c < f.nc; ++c) {
      double len = length_of(c);
      while (len < threshold) {
        double amt = kInf;
        for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
          amt = std::min(amt, 1.0 / (cf[p] * inv_b[rw[p]]));
        }
        raw[f.id[c]] += amt;
        for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
          y[rw[p]] *= 1.0 + eps * (cf[p] * amt * inv_b[rw[p]]);
        }
        if (++steps >= max_steps) {
          hit_limit = true;
          break;
        }
        len = length_of(c);
      }
      if (hit_limit) break;
    }
    ++phases;
    alpha *= 1.0 + eps;
  }
  section.reset();

  // --- Make the raw iterate exactly feasible ---------------------------
  // The GK analysis scales raw flows by log_{1+eps}(1/delta); in practice
  // the tight uniform clamp (divide by the worst row-overload ratio) is
  // never worse and usually much better, and it is *exact*: the returned
  // solution satisfies Ax <= b up to floating-point rounding.
  if (reg != nullptr) section.emplace(*reg, "clamp");
  std::vector<double> usage(m, 0.0);
  auto accumulate_usage = [&](std::size_t c, double amount) {
    for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
      usage[rw[p]] += cf[p] * amount;
    }
  };
  for (std::size_t c = 0; c < f.nc; ++c) accumulate_usage(c, raw[f.id[c]]);
  double worst_ratio = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (usage[i] > model.rhs(i)) {
      worst_ratio = std::max(worst_ratio, usage[i] * inv_b[i]);
    }
  }
  const double shrink = 1.0 / worst_ratio;
  for (std::size_t i = 0; i < m; ++i) usage[i] *= shrink;
  for (std::size_t c = 0; c < f.nc; ++c) raw[f.id[c]] *= shrink;
  section.reset();

  // --- Greedy refill ----------------------------------------------------
  // The uniform clamp can leave slack on rows away from the global
  // bottleneck; a single density-ordered pass tops columns up against the
  // residual capacities. This only ever increases the objective and keeps
  // feasibility by construction.
  if (reg != nullptr) section.emplace(*reg, "refill");
  std::vector<std::size_t> order(f.nc);
  for (std::size_t c = 0; c < f.nc; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    // Density: profit per unit of normalized capacity consumed.
    auto weight = [&](std::size_t c) {
      double w = 0.0;
      for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
        w += cf[p] * inv_b[rw[p]];
      }
      return w;
    };
    return weight(a) < weight(b);
  });
  constexpr double kSlackTol = 1e-12;
  for (std::size_t c : order) {
    double room = kInf;
    for (std::uint32_t p = cp[c]; p < cp[c + 1]; ++p) {
      const double residual = model.rhs(rw[p]) - usage[rw[p]];
      room = std::min(room, residual / cf[p]);
    }
    if (room > kSlackTol) {
      raw[f.id[c]] += room;
      accumulate_usage(c, room);
    }
  }
  section.reset();

  // raw counts "profit units" (a_ij was divided by c_j); convert back.
  for (std::size_t c = 0; c < f.nc; ++c) {
    sol.x[f.id[c]] = raw[f.id[c]] / f.profit[c];
  }

  // Dual bound: for packing duality, OPT <= D(y) / min_j length_j once the
  // algorithm stopped (min length ~ 1).
  double dual_value = 0.0;
  for (std::size_t i = 0; i < m; ++i) dual_value += model.rhs(i) * y[i];
  double min_len = kInf;
  for (std::size_t c = 0; c < f.nc; ++c) {
    min_len = std::min(min_len, length_of(c));
  }
  last_dual_bound_ = dual_value / std::max(min_len, 1e-300);

  if (reg != nullptr) {
    reg->counter("lp.packing.solves").inc();
    reg->counter("lp.packing.steps").inc(steps);
    reg->counter("lp.packing.phases_routed").inc(phases);
  }

  sol.objective = model.objective_value(sol.x);
  sol.iterations = steps;
  sol.status = hit_limit ? Status::kIterLimit : Status::kOptimal;
  return sol;
}

}  // namespace megate::lp

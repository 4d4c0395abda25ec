#include "megate/lp/model.h"

#include <algorithm>
#include <stdexcept>

namespace megate::lp {

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iteration-limit";
    case Status::kInvalidModel: return "invalid-model";
  }
  return "?";
}

std::size_t Model::add_variable(double obj_coef) {
  obj_.push_back(obj_coef);
  ColRange r;
  r.begin = static_cast<std::uint32_t>(arena_rows_.size());
  cols_.push_back(r);
  return obj_.size() - 1;
}

std::size_t Model::add_constraint(double rhs) {
  if (rhs < 0.0) throw std::invalid_argument("lp::Model: rhs must be >= 0");
  rhs_.push_back(rhs);
  return rhs_.size() - 1;
}

void Model::add_coefficient(std::size_t row, std::size_t var, double coef) {
  if (row >= rhs_.size() || var >= obj_.size()) {
    throw std::out_of_range("lp::Model: row/var out of range");
  }
  if (coef <= 0.0) {
    throw std::invalid_argument("lp::Model: coefficients must be > 0");
  }
  ColRange& col = cols_[var];
  // Accumulate into an existing entry if the caller adds the same (row,var)
  // twice (e.g. a tunnel traversing the same link in both directions).
  for (std::uint32_t p = col.begin; p < col.begin + col.count; ++p) {
    if (arena_rows_[p] == row) {
      arena_coefs_[p] += coef;
      return;
    }
  }
  const std::uint32_t r32 = static_cast<std::uint32_t>(row);
  if (col.begin + col.count != arena_rows_.size()) {
    // The column is not at the arena tail (the caller went back to an
    // earlier variable): relocate its entries to the end so the slice
    // stays contiguous. The old slice becomes a dead hole — acceptable,
    // since builders extend one column at a time and never revisit.
    const std::uint32_t new_begin =
        static_cast<std::uint32_t>(arena_rows_.size());
    for (std::uint32_t p = col.begin; p < col.begin + col.count; ++p) {
      arena_rows_.push_back(arena_rows_[p]);
      arena_coefs_.push_back(arena_coefs_[p]);
    }
    col.begin = new_begin;
  }
  arena_rows_.push_back(r32);
  arena_coefs_.push_back(coef);
  ++col.count;
}

std::size_t Model::num_nonzeros() const noexcept {
  std::size_t nnz = 0;
  for (const ColRange& c : cols_) nnz += c.count;
  return nnz;
}

double Model::objective_value(const std::vector<double>& x) const {
  double v = 0.0;
  const std::size_t n = std::min(x.size(), obj_.size());
  for (std::size_t j = 0; j < n; ++j) v += obj_[j] * x[j];
  return v;
}

double Model::max_violation(const std::vector<double>& x) const {
  std::vector<double> usage(rhs_.size(), 0.0);
  const std::size_t n = std::min(x.size(), cols_.size());
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] == 0.0) continue;
    const ColumnView col = column(j);
    for (std::size_t p = 0; p < col.size(); ++p) {
      usage[col.row(p)] += col.coef(p) * x[j];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < rhs_.size(); ++i) {
    worst = std::max(worst, usage[i] - rhs_[i]);
  }
  return worst;
}

}  // namespace megate::lp

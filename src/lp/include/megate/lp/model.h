#pragma once
// Linear-program model shared by the exact simplex solver and the
// approximate packing solver.
//
// All LPs that MegaTE needs (MaxSiteFlow Eq. 2, the LP-all baseline, the
// NCFlow cluster subproblems) are *packing* LPs:
//
//     max  c' x     s.t.  A x <= b,  x >= 0,   with A >= 0, b >= 0.
//
// The model stores A column-wise (each variable's constraint memberships)
// because both solvers and the TE layer iterate per tunnel variable.
//
// Storage is structure-of-arrays: every column's nonzeros live in one
// shared arena (parallel row-index / coefficient arrays) and a column is
// a contiguous [begin, begin+count) slice of it. Hyper-scale MaxSiteFlow
// instances have O(100k) columns of ~5 entries each; one arena replaces
// one heap allocation per column and hands the packing solver flat,
// cache-linear arrays to sweep (DESIGN.md §12).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace megate::lp {

/// One nonzero of a column: `coef` in row `row`.
struct Entry {
  std::size_t row;
  double coef;
};

/// Result status of an LP solve.
enum class Status {
  kOptimal,       ///< proven optimal (simplex) or within epsilon (packing)
  kUnbounded,     ///< objective unbounded above
  kIterLimit,     ///< iteration limit hit; solution is best found so far
  kInvalidModel,  ///< model violates a solver precondition
};

const char* to_string(Status s) noexcept;

/// Primal solution of `solve`.
struct Solution {
  Status status = Status::kInvalidModel;
  double objective = 0.0;
  std::vector<double> x;        ///< one value per variable
  std::size_t iterations = 0;   ///< pivots (simplex) / routings (packing)
};

/// Column-wise packing-LP builder over an entry arena.
class Model {
 public:
  /// Zero-copy view of one column's nonzeros in the shared arena.
  /// Invalidated by any mutation of the model (like a vector iterator).
  class ColumnView {
   public:
    ColumnView(const std::uint32_t* rows, const double* coefs,
               std::size_t size) noexcept
        : rows_(rows), coefs_(coefs), size_(size) {}

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t row(std::size_t i) const noexcept { return rows_[i]; }
    double coef(std::size_t i) const noexcept { return coefs_[i]; }
    Entry operator[](std::size_t i) const noexcept {
      return Entry{rows_[i], coefs_[i]};
    }

    /// Forward iteration yielding Entry by value, so existing
    /// `for (const Entry e : model.column(j))` loops keep working.
    class Iterator {
     public:
      Iterator(const ColumnView* v, std::size_t i) noexcept : v_(v), i_(i) {}
      Entry operator*() const noexcept { return (*v_)[i_]; }
      Iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      bool operator!=(const Iterator& o) const noexcept { return i_ != o.i_; }

     private:
      const ColumnView* v_;
      std::size_t i_;
    };
    Iterator begin() const noexcept { return Iterator(this, 0); }
    Iterator end() const noexcept { return Iterator(this, size_); }

   private:
    const std::uint32_t* rows_;
    const double* coefs_;
    std::size_t size_;
  };

  /// Adds a variable with the given objective coefficient; returns its index.
  std::size_t add_variable(double obj_coef);

  /// Adds an empty `<= rhs` constraint; returns its row index.
  /// rhs must be >= 0 (capacities and demands are non-negative).
  std::size_t add_constraint(double rhs);

  /// Sets A[row, var] += coef. coef must be > 0 (packing structure);
  /// duplicate (row, var) entries accumulate. Appending to the most
  /// recently extended column is O(1); touching an earlier column
  /// relocates that column to the arena tail (builders add one column at
  /// a time, so relocation is the rare path).
  void add_coefficient(std::size_t row, std::size_t var, double coef);

  std::size_t num_variables() const noexcept { return obj_.size(); }
  std::size_t num_constraints() const noexcept { return rhs_.size(); }
  std::size_t num_nonzeros() const noexcept;

  double objective_coef(std::size_t var) const { return obj_[var]; }
  double rhs(std::size_t row) const { return rhs_[row]; }
  ColumnView column(std::size_t var) const noexcept {
    const ColRange& r = cols_[var];
    return ColumnView(arena_rows_.data() + r.begin,
                      arena_coefs_.data() + r.begin, r.count);
  }

  /// Objective value c'x for an arbitrary assignment.
  double objective_value(const std::vector<double>& x) const;

  /// Largest constraint violation max_i (A x - b)_i, clamped at 0;
  /// used by tests and the packing solver's final feasibility clamp.
  double max_violation(const std::vector<double>& x) const;

 private:
  /// One column's slice of the arena.
  struct ColRange {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  std::vector<double> obj_;
  std::vector<double> rhs_;
  std::vector<ColRange> cols_;
  // Entry arena shared by all columns (SoA: rows and coefs in parallel).
  std::vector<std::uint32_t> arena_rows_;
  std::vector<double> arena_coefs_;
};

}  // namespace megate::lp

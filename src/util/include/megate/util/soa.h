#pragma once
// Structure-of-arrays storage for the serial feasibility-repair kernel.
//
// The repair kernel (te/repair_kernel.h), which TealSolver and the
// learned allocator both drive, walks jagged per-pair data — flow
// demands, tunnel link lists, dense flow x tunnel allocation tensors —
// once per pass over every pair. A map-of-vectors layout is
// cache-hostile there; FlatRows stores every row back to back in one
// contiguous buffer with a CSR-style offset table, so a pass is one
// linear sweep and a row is one (pointer, length) span.

#include <cstddef>
#include <span>
#include <vector>

namespace megate::util {

/// Jagged 2-D array in one contiguous buffer. Rows are built in order:
/// add_row() opens row r, extend()/extend_fill() push onto the open row.
/// Random-access reads are O(1) via the offset table.
template <typename T>
class FlatRows {
 public:
  void clear() noexcept {
    values_.clear();
    offsets_.assign(1, 0);
  }

  /// Opens a new row; returns its index.
  std::size_t add_row() {
    offsets_.push_back(values_.size());
    return offsets_.size() - 2;
  }

  /// Appends a whole range to the open row (the one add_row opened last).
  void extend(std::span<const T> vs) {
    values_.insert(values_.end(), vs.begin(), vs.end());
    offsets_.back() += vs.size();
  }

  /// Appends `n` copies of `v` to the open row.
  void extend_fill(std::size_t n, const T& v) {
    values_.insert(values_.end(), n, v);
    offsets_.back() += n;
  }

  std::size_t num_rows() const noexcept { return offsets_.size() - 1; }
  std::size_t row_size(std::size_t r) const noexcept {
    return offsets_[r + 1] - offsets_[r];
  }

  std::span<T> row(std::size_t r) noexcept {
    return {values_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }
  std::span<const T> row(std::size_t r) const noexcept {
    return {values_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

 private:
  std::vector<T> values_;
  /// offsets_[r] .. offsets_[r+1] delimit row r; always one per row + 1.
  std::vector<std::size_t> offsets_{0};
};

}  // namespace megate::util

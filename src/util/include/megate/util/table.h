#pragma once
// Plain-text table emission for the benchmark harnesses.
//
// Every bench binary reproduces one table or figure of the paper; the
// harness prints an aligned human-readable table to stdout.

#include <iosfwd>
#include <string>
#include <vector>

namespace megate::util {

/// Column-aligned text table with an optional title, built row by row.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before add_row.
  Table& header(std::vector<std::string> cols);

  /// Appends a row; pads/truncates to the header width.
  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats arithmetic cells with fixed precision.
  static std::string num(double v, int precision = 2);
  static std::string num(std::size_t v);
  /// "123456" -> "123,456" for readability of endpoint counts.
  static std::string with_commas(std::uint64_t v);

  /// Renders the aligned table.
  void print(std::ostream& os) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace megate::util

#include "megate/util/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace megate::util {

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(std::size_t v) { return std::to_string(v); }

std::string Table::with_commas(std::uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  int count = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c)
    rule += std::string(widths[c], '-') + "  ";
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace megate::util

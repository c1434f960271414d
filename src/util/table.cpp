#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace ds {

namespace {
std::string render_cell(const TablePrinter::Cell& c, int precision) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* d = std::get_if<double>(&c)) return fmt(*d, precision);
  return std::to_string(std::get<std::int64_t>(c));
}
}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DS_CHECK(!headers_.empty());
}

void TablePrinter::set_precision(int digits) { precision_ = digits; }

void TablePrinter::add_row(std::vector<Cell> cells) {
  DS_CHECK_MSG(cells.size() == headers_.size(),
               "row has " << cells.size() << " cells, table has "
                          << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      r.push_back(render_cell(row[i], precision_));
      width[i] = std::max(width[i], r.back().size());
    }
    rendered.push_back(std::move(r));
  }

  auto emit = [&](const std::vector<std::string>& cells,
                  const std::vector<std::vector<Cell>>* source,
                  std::size_t row_idx) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool numeric =
          source != nullptr &&
          !std::holds_alternative<std::string>((*source)[row_idx][i]);
      if (i > 0) os << "  ";
      if (numeric)
        os << std::setw(static_cast<int>(width[i])) << std::right << cells[i];
      else
        os << std::setw(static_cast<int>(width[i])) << std::left << cells[i];
    }
    os << '\n';
  };

  emit(headers_, nullptr, 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    if (i > 0) os << "  ";
    os << std::string(width[i], '-');
  }
  os << '\n';
  for (std::size_t r = 0; r < rendered.size(); ++r) emit(rendered[r], &rows_, r);
}

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

}  // namespace ds

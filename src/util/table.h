// Console table emission used by the bench harness. Every bench binary
// prints the rows the paper's table or figure reports; TablePrinter keeps the
// formatting uniform.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace ds {

// Fixed-width, right-aligned numeric columns; left-aligned text.
class TablePrinter {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit TablePrinter(std::vector<std::string> headers);

  // Number of fractional digits for double cells (default 2).
  void set_precision(int digits);

  void add_row(std::vector<Cell> cells);

  // Render with a header rule, e.g.
  //   workload        Spark  DelayStage
  //   --------------  -----  ----------
  //   TriangleCount   780.1       458.3
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 2;
};

// Format a double with fixed precision (helper for ad-hoc report lines).
std::string fmt(double v, int digits = 2);

}  // namespace ds

// Fixed-width text tables for the benchmark output — each bench prints the
// same rows its paper table reports — and the AvgIT timer of the efficiency
// tables.
#ifndef HEAD_EVAL_TABLE_H_
#define HEAD_EVAL_TABLE_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace head::eval {

/// Mean wall-clock milliseconds of `fn` over `iterations` calls (after
/// `warmup` unmeasured calls), on the obs::NowNs() clock.
double MeasureAvgMillis(const std::function<void()>& fn, int iterations,
                        int warmup = 3);

/// Formats `v` with `precision` decimal places.
std::string FormatDouble(double v, int precision = 2);

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& os, const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace head::eval

#endif  // HEAD_EVAL_TABLE_H_

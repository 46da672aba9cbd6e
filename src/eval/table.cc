#include "eval/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "obs/profiler.h"

namespace head::eval {

double MeasureAvgMillis(const std::function<void()>& fn, int iterations,
                        int warmup) {
  HEAD_CHECK_GT(iterations, 0);
  for (int i = 0; i < warmup; ++i) fn();
  const uint64_t start = obs::NowNs();
  for (int i = 0; i < iterations; ++i) fn();
  return (obs::NowNs() - start) * 1e-6 / iterations;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  HEAD_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os, const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  size_t total = 1;
  for (size_t w : widths) total += w + 3;
  const std::string rule(total, '-');

  if (!title.empty()) os << title << "\n";
  os << rule << "\n|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    os << " " << headers_[c]
       << std::string(widths[c] - headers_[c].size(), ' ') << " |";
  }
  os << "\n" << rule << "\n";
  for (const auto& row : rows_) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
  }
  os << rule << "\n";
}

}  // namespace head::eval

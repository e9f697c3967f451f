#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace sinet::core {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("Table: empty header list");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string out = render_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  out.append(total - 2, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string fmt_pct(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string paper_vs_measured(const std::string& metric,
                              const std::string& paper_value,
                              const std::string& measured) {
  return "  " + metric + ": paper=" + paper_value + "  measured=" + measured;
}

std::string experiment_banner(const std::string& exp_id,
                              const std::string& title) {
  std::string line(72, '=');
  return line + "\n" + exp_id + " — " + title + "\n" + line;
}

}  // namespace sinet::core

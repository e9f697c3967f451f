// Report rendering: aligned ASCII tables and "paper vs. measured" rows
// shared by every bench binary.
#pragma once

#include <string>
#include <vector>

namespace sinet::core {

/// Simple fixed-layout ASCII table builder.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add a row; throws std::invalid_argument on column-count mismatch.
  void add_row(std::vector<std::string> cells);

  /// Render with column-width alignment and a header separator.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style number formatting helpers for table cells.
[[nodiscard]] std::string fmt(double value, int decimals = 2);
[[nodiscard]] std::string fmt_pct(double fraction, int decimals = 1);

/// A "paper reported X, we measured Y" line used in EXPERIMENTS.md-style
/// output. `tolerance_note` documents how close the shape is expected
/// to be.
[[nodiscard]] std::string paper_vs_measured(const std::string& metric,
                                            const std::string& paper_value,
                                            const std::string& measured);

/// Banner line identifying an experiment in bench output.
[[nodiscard]] std::string experiment_banner(const std::string& exp_id,
                                            const std::string& title);

}  // namespace sinet::core

// Fixed-width binned histogram with under/overflow accounting.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sinet::stats {

/// Equal-width histogram over [lo, hi) with `bins` buckets.
/// Samples below lo / at-or-above hi are tracked separately.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add(double x, double weight) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] double bin_lower_edge(std::size_t i) const noexcept;
  [[nodiscard]] double count(std::size_t i) const;
  [[nodiscard]] double underflow() const noexcept { return underflow_; }
  [[nodiscard]] double overflow() const noexcept { return overflow_; }
  /// Mass carried by NaN samples, tracked like under/overflow (NaN is
  /// neither below lo nor at-or-above hi, so it gets its own bucket).
  [[nodiscard]] double nan() const noexcept { return nan_; }
  [[nodiscard]] double total() const noexcept { return total_; }

  /// Fold `other` into this histogram: elementwise bin-count addition
  /// plus under/overflow, NaN and total mass. Both histograms must share
  /// the exact binning (lo, hi, bin count) — throws std::invalid_argument
  /// otherwise. Addition order is the caller's contract: merging
  /// shard-local histograms in a fixed shard order yields bit-identical
  /// totals regardless of how the shards were scheduled.
  void merge(const Histogram& other);

  /// ASCII rendering for reports, one line per bin.
  [[nodiscard]] std::string render(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
  double nan_ = 0.0;
  double total_ = 0.0;
};

}  // namespace sinet::stats

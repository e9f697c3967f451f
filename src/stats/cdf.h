// Empirical cumulative distribution functions.
//
// The paper reports most results as CDFs (Figs 3b, 3c, 4a, 4b, 5b, 5c, 8,
// 12a, 12b). This type collects samples and answers quantile / CDF queries
// with linear interpolation between order statistics.
//
// Thread safety: concurrent const accessors (quantile, fraction_*, curve,
// sorted_samples) are safe — the lazy sort is guarded by a
// mutex behind a double-checked atomic flag, so pool workers can query one
// shared CDF without racing. Mutation (add) is not safe concurrently with
// readers or other writers; collect first, then query.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace sinet::stats {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::span<const double> samples);

  // The sort mutex/flag make the type non-trivially copyable; copies carry
  // the samples (result structs holding CDFs are returned by value).
  EmpiricalCdf(const EmpiricalCdf& other);
  EmpiricalCdf& operator=(const EmpiricalCdf& other);
  EmpiricalCdf(EmpiricalCdf&& other) noexcept;
  EmpiricalCdf& operator=(EmpiricalCdf&& other) noexcept;

  void add(double x);

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Quantile for p in [0, 1] with linear interpolation.
  /// Throws std::out_of_range for p outside [0,1] or an empty CDF.
  [[nodiscard]] double quantile(double p) const;

  /// Median shorthand.
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Fraction of samples <= x, in [0, 1]. Returns 0 for an empty CDF.
  [[nodiscard]] double fraction_at_or_below(double x) const;

  /// Evenly spaced (value, cumulative-fraction) points for plotting.
  /// `points` >= 2; returns empty for an empty CDF.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t points = 101) const;

  /// Sorted view of the underlying samples.
  [[nodiscard]] std::span<const double> sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable std::atomic<bool> sorted_{true};
  mutable std::mutex sort_mutex_;
};

}  // namespace sinet::stats

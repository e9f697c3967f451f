// Streaming descriptive statistics (Welford online algorithm).
//
// Used throughout the measurement pipeline to summarize per-trace,
// per-contact and per-experiment observables without retaining every
// sample in memory.
#pragma once

#include <cstddef>
#include <limits>

namespace sinet::stats {

/// Online accumulator for count / mean / variance / min / max.
///
/// Numerically stable (Welford). All methods are O(1).
class StreamingStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// Arithmetic mean; NaN when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Unbiased sample variance; NaN when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  /// Sample standard deviation; NaN when fewer than two samples.
  [[nodiscard]] double stddev() const noexcept;
  /// Smallest sample; +inf when empty.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest sample; -inf when empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Sum of all samples; 0 when empty.
  [[nodiscard]] double sum() const noexcept { return sum_; }

  void reset() noexcept { *this = StreamingStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace sinet::stats

#include "stats/descriptive.h"

#include <cmath>

namespace sinet::stats {

void StreamingStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double StreamingStats::mean() const noexcept {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : mean_;
}

double StreamingStats::variance() const noexcept {
  if (n_ < 2) return std::numeric_limits<double>::quiet_NaN();
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const noexcept {
  const double v = variance();
  return std::isnan(v) ? v : std::sqrt(v);
}

}  // namespace sinet::stats

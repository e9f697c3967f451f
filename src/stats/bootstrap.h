// Bootstrap confidence intervals for campaign metrics.
//
// A measurement study should report uncertainty: our compressed campaigns
// produce hundreds (not hundreds of thousands) of contacts, so the bench
// tables attach percentile-bootstrap CIs to the headline means.
#pragma once

#include <cstddef>
#include <span>

#include "sim/rng.h"

namespace sinet::stats {

struct ConfidenceInterval {
  double point = 0.0;  ///< the sample statistic itself
  double low = 0.0;
  double high = 0.0;

  [[nodiscard]] double half_width() const { return 0.5 * (high - low); }
  [[nodiscard]] bool contains(double v) const {
    return v >= low && v <= high;
  }
};

/// Percentile-bootstrap CI for the mean of `samples`.
/// `confidence` in (0, 1); throws std::invalid_argument for empty input,
/// bad confidence or zero resamples.
[[nodiscard]] ConfidenceInterval bootstrap_mean_ci(
    std::span<const double> samples, sinet::sim::Rng& rng,
    std::size_t resamples = 1000, double confidence = 0.95);

}  // namespace sinet::stats

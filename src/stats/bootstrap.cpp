#include "stats/bootstrap.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stats/cdf.h"

namespace sinet::stats {

namespace {

double mean_of(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

ConfidenceInterval bootstrap_mean_ci(std::span<const double> samples,
                                     sinet::sim::Rng& rng,
                                     std::size_t resamples,
                                     double confidence) {
  if (samples.empty())
    throw std::invalid_argument("bootstrap: empty sample");
  if (confidence <= 0.0 || confidence >= 1.0)
    throw std::invalid_argument("bootstrap: confidence out of (0,1)");
  if (resamples == 0)
    throw std::invalid_argument("bootstrap: zero resamples");

  std::vector<double> resample(samples.size());
  std::vector<double> means;
  means.reserve(resamples);
  const auto n = static_cast<std::int64_t>(samples.size());
  for (std::size_t b = 0; b < resamples; ++b) {
    for (double& x : resample)
      x = samples[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    means.push_back(mean_of(resample));
  }
  EmpiricalCdf cdf{std::span<const double>(means)};
  ConfidenceInterval ci;
  ci.point = mean_of(samples);
  const double alpha = (1.0 - confidence) / 2.0;
  ci.low = cdf.quantile(alpha);
  ci.high = cdf.quantile(1.0 - alpha);
  return ci;
}

}  // namespace sinet::stats

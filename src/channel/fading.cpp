#include "channel/fading.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::channel {

FadingModel::FadingModel(const FadingConfig& cfg) : cfg_(cfg) {
  if (cfg.shadowing_sigma_db < 0.0)
    throw std::invalid_argument("FadingModel: negative shadowing sigma");
  if (cfg.k_rolloff_elevation_deg <= 0.0)
    throw std::invalid_argument("FadingModel: nonpositive K rolloff");
}

double FadingModel::k_factor_db(double elevation_deg) const noexcept {
  const double el = std::clamp(elevation_deg, 0.0, 90.0);
  if (el >= cfg_.k_rolloff_elevation_deg) return cfg_.rician_k_db;
  const double frac = el / cfg_.k_rolloff_elevation_deg;
  return cfg_.low_elevation_k_db +
         frac * (cfg_.rician_k_db - cfg_.low_elevation_k_db);
}

FadeParams FadingModel::prepare(double elevation_deg, Weather w) const {
  return {cfg_.shadowing_sigma_db + weather_extra_shadowing_db(w),
          sinet::sim::rician_params(k_factor_db(elevation_deg))};
}

double FadingModel::draw_db(const FadeParams& p, sinet::sim::Rng& rng) {
  const double shadowing = rng.normal(0.0, p.shadowing_sigma_db);
  const double amp = rng.rician_amplitude(p.rician);
  // Power gain of the small-scale component (mean ~ 1 by construction).
  const double small_scale_db = 20.0 * std::log10(std::max(amp, 1e-6));
  return shadowing + small_scale_db;
}

}  // namespace sinet::channel

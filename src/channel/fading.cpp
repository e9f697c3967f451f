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

double FadingModel::fade_db(const FadeParams& p, const FadeUniforms& u) {
  const double shadowing =
      p.shadowing_sigma_db * sinet::sim::normal_quantile(u.shadowing);
  const double x =
      p.rician.los + p.rician.sigma * sinet::sim::normal_quantile(u.x);
  const double y = p.rician.sigma * sinet::sim::normal_quantile(u.y);
  const double amp = std::sqrt(x * x + y * y);
  // Power gain of the small-scale component (mean ~ 1 by construction).
  const double small_scale_db = 20.0 * std::log10(std::max(amp, 1e-6));
  return shadowing + small_scale_db;
}

double FadingModel::fade_bound_db(const FadeParams& p, const FadeUniforms& u) {
  // Every step of fade_db up to the log10 rises with |z| or z, and
  // rounding preserves order, so the bracket ends bound each step's
  // computed value: sigma * z with sigma >= 0 at the top end, and |x|,
  // |y| at one end or the other. 10 log10(a^2) is 20 log10(a) but for
  // the rounding of the sqrt and the log10s.
  const auto brackets = sinet::sim::normal_quantile_brackets();
  const sinet::sim::QuantileBracket zs =
      brackets[sinet::sim::quantile_bucket(u.shadowing)];
  const sinet::sim::QuantileBracket zx =
      brackets[sinet::sim::quantile_bucket(u.x)];
  const sinet::sim::QuantileBracket zy =
      brackets[sinet::sim::quantile_bucket(u.y)];
  const double shadowing_hi = p.shadowing_sigma_db * zs.hi;
  const double x_hi = std::max(std::abs(p.rician.los + p.rician.sigma * zx.lo),
                               std::abs(p.rician.los + p.rician.sigma * zx.hi));
  const double y_hi = std::abs(p.rician.sigma) * std::max(-zy.lo, zy.hi);
  const double power_hi = x_hi * x_hi + y_hi * y_hi;
  return shadowing_hi + 10.0 * std::log10(std::max(power_hi, 1e-12));
}

}  // namespace sinet::channel

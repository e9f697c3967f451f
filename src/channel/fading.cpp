#include "channel/fading.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace sinet::channel {

FadingModel::FadingModel(const FadingConfig& cfg) : cfg_(cfg) {
  // Written so that NaN fails every check.
  if (!(cfg.shadowing_sigma_db >= 0.0 &&
        std::isfinite(cfg.shadowing_sigma_db)))
    throw std::invalid_argument(
        "FadingModel: shadowing sigma not finite and >= 0");
  if (!(std::isfinite(cfg.rician_k_db) &&
        std::isfinite(cfg.low_elevation_k_db)))
    throw std::invalid_argument("FadingModel: K-factor not finite");
  if (!(cfg.k_rolloff_elevation_deg > 0.0 &&
        std::isfinite(cfg.k_rolloff_elevation_deg)))
    throw std::invalid_argument("FadingModel: K rolloff not finite and > 0");
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

double power_db_upper_bound(double power) {
  // power = 2^e (1 + f) with f in [0, 1); the bucket i = floor(1024 f)
  // holds 1 + f below 1 + (i + 1) / 1024, so 10 log10(power) is below
  // 10 e log10 2 + 10 log10(1 + (i + 1) / 1024). The rounding of the
  // entries, of 10 log10 2 and of the product and the sum stays under
  // 1e-12 dB for |e| <= 1023, far inside the 1e-9 dB padding.
  constexpr int kBits = 10;
  static const std::array<double, std::size_t{1} << kBits> bucket_top_db = [] {
    std::array<double, std::size_t{1} << kBits> t;
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = 10.0 * std::log10(1.0 + static_cast<double>(i + 1) /
                                         static_cast<double>(t.size())) +
             1e-9;
    return t;
  }();
  constexpr double kTenLog10Two = 3.0102999566398119521;
  const auto bits = std::bit_cast<std::uint64_t>(power);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0x7ff) return 10.0 * std::log10(power);  // +inf, NaN
  return static_cast<double>(biased - 1023) * kTenLog10Two +
         bucket_top_db[(bits >> (52 - kBits)) & (bucket_top_db.size() - 1)];
}

double FadingModel::fade_bound_db(const FadeParams& p, const FadeUniforms& u,
                                  double power_slack) {
  // Every step of fade_db up to the log10 rises with |z| or z, and
  // rounding preserves order, so the bracket ends bound each step's
  // computed value: sigma * z with sigma >= 0 at the top end, and |x|,
  // |y| at one end or the other. 10 log10(a^2) is 20 log10(a) but for
  // the rounding of the sqrt and the log10s, and power_db_upper_bound
  // lies above 10 log10(a^2).
  static const std::span<const sinet::sim::QuantileBracket,
                         sinet::sim::kQuantileBuckets>
      brackets = sinet::sim::normal_quantile_brackets();
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
  // power_hi >= 0, so adding a zero slack leaves its bits unchanged.
  const double power_hi = x_hi * x_hi + y_hi * y_hi + power_slack;
  return shadowing_hi + power_db_upper_bound(std::max(power_hi, 1e-12));
}

}  // namespace sinet::channel

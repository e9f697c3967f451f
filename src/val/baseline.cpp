#include "val/baseline.h"

#include <cmath>
#include <stdexcept>

#include "orbit/tle.h"

namespace sinet::val {

namespace {

// IAU-82 sidereal rotation rate, matching the GMST derivative the
// propagation stack uses for TEME->ECEF.
constexpr double kEarthRotationRadS = 7.2921158553e-5;

void check_geometry_args(double altitude_km, double mask_deg,
                         const char* what) {
  if (!(altitude_km > 0.0))
    throw std::invalid_argument(std::string(what) +
                                ": altitude must be positive");
  if (!(mask_deg >= 0.0) || mask_deg >= 90.0)
    throw std::invalid_argument(std::string(what) +
                                ": mask must be in [0, 90)");
}

}  // namespace

double visibility_half_angle_rad(double altitude_km, double mask_deg) {
  check_geometry_args(altitude_km, mask_deg, "visibility_half_angle_rad");
  const double eps = mask_deg * orbit::kDegToRad;
  const double ratio =
      orbit::kEarthRadiusKm / (orbit::kEarthRadiusKm + altitude_km);
  return std::acos(ratio * std::cos(eps)) - eps;
}

double single_satellite_visibility_fraction(double altitude_km,
                                            double mask_deg) {
  const double theta = visibility_half_angle_rad(altitude_km, mask_deg);
  return (1.0 - std::cos(theta)) / 2.0;
}

double constellation_availability(const std::vector<ShellSpec>& shells,
                                  double mask_deg) {
  double none_visible = 1.0;
  for (const ShellSpec& shell : shells) {
    if (shell.count <= 0) continue;
    const double p =
        single_satellite_visibility_fraction(shell.altitude_km, mask_deg);
    none_visible *= std::pow(1.0 - p, shell.count);
  }
  return 1.0 - none_visible;
}

double expected_daily_presence_hours(const std::vector<ShellSpec>& shells,
                                     double mask_deg) {
  return 24.0 * constellation_availability(shells, mask_deg);
}

double orbital_angular_rate_rad_s(double altitude_km) {
  if (!(altitude_km > 0.0))
    throw std::invalid_argument(
        "orbital_angular_rate_rad_s: altitude must be positive");
  const double r = orbit::kEarthRadiusKm + altitude_km;
  return std::sqrt(orbit::kMuEarthKm3PerS2 / (r * r * r));
}

double max_pass_duration_s(double altitude_km, double mask_deg,
                           double inclination_deg) {
  const double theta = visibility_half_angle_rad(altitude_km, mask_deg);
  const double omega_rel =
      orbital_angular_rate_rad_s(altitude_km) -
      kEarthRotationRadS * std::cos(inclination_deg * orbit::kDegToRad);
  if (!(omega_rel > 0.0))
    throw std::invalid_argument(
        "max_pass_duration_s: nonpositive relative angular rate");
  return 2.0 * theta / omega_rel;
}

stats::EmpiricalCdf analytic_pass_duration_cdf(
    const std::vector<ShellSpec>& shells, double mask_deg,
    std::size_t points) {
  if (points == 0)
    throw std::invalid_argument(
        "analytic_pass_duration_cdf: points must be >= 1");
  int total = 0;
  for (const ShellSpec& shell : shells)
    if (shell.count > 0) total += shell.count;
  if (total == 0)
    throw std::invalid_argument(
        "analytic_pass_duration_cdf: empty constellation");

  stats::EmpiricalCdf cdf;
  for (const ShellSpec& shell : shells) {
    if (shell.count <= 0) continue;
    const double t_max = max_pass_duration_s(shell.altitude_km, mask_deg,
                                             shell.inclination_deg);
    // Population-proportional share of the sample budget, at least one.
    const auto k = std::max<std::size_t>(
        1, points * static_cast<std::size_t>(shell.count) /
               static_cast<std::size_t>(total));
    for (std::size_t i = 0; i < k; ++i) {
      // Inverse CDF at the midpoint quantile: F^-1(p) with
      // F(t) = 1 - sqrt(1 - (t/T)^2)  =>  t = T sqrt(1 - (1-p)^2).
      const double p =
          (static_cast<double>(i) + 0.5) / static_cast<double>(k);
      cdf.add(t_max * std::sqrt(1.0 - (1.0 - p) * (1.0 - p)));
    }
  }
  return cdf;
}

double expected_delivery_rate(const UplinkDeliveryModel& m) {
  if (m.max_retransmissions < 0)
    throw std::invalid_argument(
        "expected_delivery_rate: negative retransmission budget");
  for (const double p : {m.nominal_loss, m.congested_probability,
                         m.congested_loss, m.delivery_loss})
    if (!(p >= 0.0) || p > 1.0)
      throw std::invalid_argument(
          "expected_delivery_rate: probabilities must be in [0, 1]");
  const double attempts = static_cast<double>(m.max_retransmissions) + 1.0;
  // Congestion is block-coherent: the whole ARQ chain sees the same
  // per-attempt loss, so failure probabilities mix over the block kind
  // rather than per attempt.
  const double fail_uplink =
      (1.0 - m.congested_probability) * std::pow(m.nominal_loss, attempts) +
      m.congested_probability * std::pow(m.congested_loss, attempts);
  return (1.0 - fail_uplink) * (1.0 - m.delivery_loss);
}

double expected_wait_s(
    const std::vector<std::pair<double, double>>& windows_s,
    double span_start_s, double span_end_s) {
  const double span = span_end_s - span_start_s;
  if (!(span > 0.0)) return 0.0;
  double sum_sq = 0.0;
  double cursor = span_start_s;
  for (const auto& [aos, los] : windows_s) {
    if (aos > cursor) {
      const double gap = aos - cursor;
      sum_sq += gap * gap;
    }
    if (los > cursor) cursor = los;
  }
  if (span_end_s > cursor) {
    // Censored final stretch: treated as a gap ending at the span end.
    const double gap = span_end_s - cursor;
    sum_sq += gap * gap;
  }
  return sum_sq / (2.0 * span);
}

}  // namespace sinet::val

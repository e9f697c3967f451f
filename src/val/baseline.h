// Closed-form analytic baselines for the validation harness.
//
// Implements the stochastic-geometry expected-contact and uplink-delivery
// formulas of "End-to-End Uplink Performance Analysis of Satellite-Based
// IoT Networks: A Stochastic Geometry Approach" (arXiv 2406.19677,
// PAPERS.md) in the simplified isotropic form: satellites of one orbital
// group are treated as uniformly distributed on their altitude shell, so
// visibility of one satellite is the spherical-cap area fraction of the
// observer's visibility cone and constellation-level availability follows
// by independence. Pass durations follow the random-chord model (the
// ground track crosses the visibility disc on a straight line with a
// uniformly distributed impact parameter).
//
// These are deliberately coarse models — the point is not to reproduce
// the SGP4 scan, but to give every scan mode and the DtS network a
// simulator-independent reference whose divergence (stats/divergence.h)
// is stable enough to gate CI on. Threshold derivations live in
// docs/VALIDATION.md.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/cdf.h"

namespace sinet::val {

/// Earth-central half-angle (rad) of the visibility cone: a satellite at
/// `altitude_km` is above elevation `mask_deg` iff the geocentric angle
/// between it and the observer is below
///     theta = acos((Re / (Re + h)) cos eps) - eps.
/// Throws std::invalid_argument for nonpositive altitude or a mask
/// outside [0, 90).
[[nodiscard]] double visibility_half_angle_rad(double altitude_km,
                                               double mask_deg);

/// Probability that one uniformly-distributed satellite of the shell is
/// visible: the cap area fraction (1 - cos theta) / 2, in (0, 1).
[[nodiscard]] double single_satellite_visibility_fraction(double altitude_km,
                                                          double mask_deg);

/// One homogeneous altitude shell of a constellation.
struct ShellSpec {
  int count = 0;
  double altitude_km = 0.0;
  double inclination_deg = 0.0;
};

/// Fraction of time at least one satellite of the shells is visible:
/// 1 - prod_g (1 - p_g)^{n_g} under the independence assumption.
[[nodiscard]] double constellation_availability(
    const std::vector<ShellSpec>& shells, double mask_deg);

/// Expected merged daily presence hours: 24 * availability.
[[nodiscard]] double expected_daily_presence_hours(
    const std::vector<ShellSpec>& shells, double mask_deg);

/// Circular-orbit angular rate (rad/s) at `altitude_km`.
[[nodiscard]] double orbital_angular_rate_rad_s(double altitude_km);

/// Maximum (overhead) pass duration: the ground track crosses the full
/// 2*theta visibility arc at the satellite's Earth-relative angular rate
/// omega_rel = omega - omega_earth * cos(i) (prograde orbits see a slower
/// relative rate, retrograde/sun-synchronous a faster one).
[[nodiscard]] double max_pass_duration_s(double altitude_km, double mask_deg,
                                         double inclination_deg);

/// Materialize the analytic pass-duration law of a (possibly
/// multi-shell) constellation as an EmpiricalCdf. The law is the random
/// chord: with the normalized impact parameter u ~ U[0,1], the pass lasts
/// T = T_max * sqrt(1 - u^2), so
///     F(t) = 1 - sqrt(1 - (t / T_max)^2)  for t in [0, T_max],
/// 0 below, 1 above, with mean (pi/4) * T_max. Each shell contributes
/// inverse-CDF samples at midpoint quantiles, `points` samples total
/// split proportionally to shell population. Deterministic.
[[nodiscard]] stats::EmpiricalCdf analytic_pass_duration_cdf(
    const std::vector<ShellSpec>& shells, double mask_deg,
    std::size_t points = 512);

/// Closed-form DtS delivery rate under block-coherent congestion (the
/// DtsNetworkConfig::Congestion model): an uplink is attempted up to
/// 1 + max_retransmissions times inside one load block, so the ARQ chain
/// fails with probability q^(n+1) conditioned on the block's per-attempt
/// loss q; post-ACK operator-side loss is unrecoverable.
struct UplinkDeliveryModel {
  double nominal_loss = 0.02;          ///< per-attempt loss, nominal block
  double congested_probability = 0.02; ///< share of congested blocks
  double congested_loss = 0.9;         ///< per-attempt loss when congested
  int max_retransmissions = 5;
  double delivery_loss = 0.03;         ///< post-uplink operator-side loss
};
[[nodiscard]] double expected_delivery_rate(const UplinkDeliveryModel& m);

/// Expected wait from a uniformly-random report time to the next AOS of
/// the merged windows [aos_s, los_s) over the span [span_start_s,
/// span_end_s] — the renewal/inspection formula sum(gap_i^2) / (2 * T),
/// where reports inside a window wait 0 and the stretch after the last
/// AOS is treated as a gap ending at the span end. Windows must be
/// merged, sorted and inside the span. Returns 0 for an empty span.
[[nodiscard]] double expected_wait_s(
    const std::vector<std::pair<double, double>>& windows_s,
    double span_start_s, double span_end_s);

}  // namespace sinet::val

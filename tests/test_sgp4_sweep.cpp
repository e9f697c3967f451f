// Extended SGP4 sweeps: drag levels, eccentricities, epochs, and
// conservation properties in the drag-free limit.
#include <gtest/gtest.h>

#include <cmath>

#include "orbit/sgp4.h"
#include "orbit/time.h"
#include "orbit/tle.h"

namespace {

using namespace sinet::orbit;

Tle build(double alt, double ecc, double incl, double bstar,
          JulianDate epoch = 0.0) {
  KeplerianElements kep;
  kep.altitude_km = alt;
  kep.eccentricity = ecc;
  kep.inclination_deg = incl;
  kep.raan_deg = 123.0;
  kep.arg_perigee_deg = 45.0;
  kep.mean_anomaly_deg = 200.0;
  kep.bstar = bstar;
  return make_tle("SWEEP", 96000, kep,
                  epoch > 0.0 ? epoch : julian_from_civil(2025, 3, 1));
}

// --- Specific orbital energy is conserved without drag -----------------
class EnergyConservation
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EnergyConservation, DragFreeEnergyIsConstant) {
  const auto [alt, ecc] = GetParam();
  const Tle tle = build(alt, ecc, 63.4, 0.0);
  const Sgp4 prop(tle);
  double e0 = 0.0;
  bool first = true;
  for (double t = 0.0; t <= 1440.0; t += 60.0) {
    const TemeState st = prop.at(t);
    const double r = st.position_km.norm();
    const double v = st.velocity_km_s.norm();
    const double energy = 0.5 * v * v - kMuEarthKm3PerS2 / r;
    if (first) {
      e0 = energy;
      first = false;
    } else {
      // J2 short-period terms wiggle the osculating energy slightly; the
      // secular trend must vanish with bstar = 0.
      EXPECT_NEAR(energy, e0, std::abs(e0) * 0.002);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AltEccGrid, EnergyConservation,
    ::testing::Values(std::make_tuple(450.0, 0.0005),
                      std::make_tuple(550.0, 0.002),
                      std::make_tuple(700.0, 0.01),
                      std::make_tuple(900.0, 0.0005),
                      std::make_tuple(1200.0, 0.02)));

// --- Drag always decays; stronger drag decays faster -------------------
TEST(Sgp4Sweep, DragOrderingAfterAMonth) {
  const double days = 30.0 * 1440.0;
  double prev_radius = 0.0;
  bool first = true;
  for (const double bstar : {0.0, 1e-5, 1e-4, 5e-4}) {
    const Tle tle = build(420.0, 0.0005, 51.6, bstar);
    const Sgp4 prop(tle);
    const double r = prop.at(days).position_km.norm();
    if (!first) {
      EXPECT_LE(r, prev_radius + 0.5) << "bstar " << bstar;
    }
    prev_radius = r;
    first = false;
  }
}

// --- Epoch invariance: dynamics depend on elements, not absolute date --
TEST(Sgp4Sweep, SameElementsDifferentEpochsSameRelativeMotion) {
  const Tle a = build(550.0, 0.001, 97.6, 1e-4,
                      julian_from_civil(2024, 6, 1));
  const Tle b = build(550.0, 0.001, 97.6, 1e-4,
                      julian_from_civil(2025, 3, 1));
  const Sgp4 pa(a), pb(b);
  for (double t = 0.0; t <= 720.0; t += 97.0) {
    // TEME states relative to epoch are identical: same elements.
    const TemeState sa = pa.at(t);
    const TemeState sb = pb.at(t);
    EXPECT_NEAR((sa.position_km - sb.position_km).norm(), 0.0, 1e-6);
  }
}

// --- Retrograde orbits are handled -------------------------------------
TEST(Sgp4Sweep, RetrogradeOrbitPropagates) {
  const Tle tle = build(600.0, 0.001, 144.0, 1e-4);
  const Sgp4 prop(tle);
  const TemeState st = prop.at(50.0);
  EXPECT_NEAR(st.position_km.norm(), 6978.0, 25.0);
  // Angular momentum z-component negative for retrograde.
  EXPECT_LT(st.position_km.cross(st.velocity_km_s).z, 0.0);
}

// --- Equatorial orbit edge case -----------------------------------------
TEST(Sgp4Sweep, NearEquatorialOrbitPropagates) {
  const Tle tle = build(550.0, 0.001, 0.01, 1e-4);
  const Sgp4 prop(tle);
  for (double t = 0.0; t <= 200.0; t += 13.0) {
    const TemeState st = prop.at(t);
    EXPECT_NEAR(st.position_km.norm(), 6928.0, 20.0);
    EXPECT_NEAR(st.position_km.z, 0.0, 5.0);  // stays in the equator plane
  }
}

// --- Nodal regression sign flips across 90 deg inclination -------------
TEST(Sgp4Sweep, J2NodalRegressionSign) {
  // Prograde: RAAN regresses (westward); retrograde: advances.
  const auto node_rate = [](double incl) {
    const Tle tle = build(700.0, 0.001, incl, 0.0);
    const Sgp4 prop(tle);
    const auto h0 = prop.at(0.0).position_km.cross(
        prop.at(0.0).velocity_km_s);
    const auto h1 = prop.at(1440.0).position_km.cross(
        prop.at(1440.0).velocity_km_s);
    // Node direction = z x h.
    const Vec3 z{0.0, 0.0, 1.0};
    const Vec3 n0 = z.cross(h0).normalized();
    const Vec3 n1 = z.cross(h1).normalized();
    // Signed angle from n0 to n1 about z.
    return std::atan2(n0.cross(n1).z, n0.dot(n1));
  };
  EXPECT_LT(node_rate(50.0), 0.0);   // prograde regresses
  EXPECT_GT(node_rate(130.0), 0.0);  // retrograde advances
  EXPECT_NEAR(node_rate(90.0), 0.0, 2e-3);  // polar: no J2 precession
}

// --- Sun-synchronous precession rate ------------------------------------
TEST(Sgp4Sweep, SunSynchronousPrecessionNearOneDegPerDay) {
  // 700 km / 98.19 deg is the textbook sun-synchronous combination:
  // RAAN advances ~0.9856 deg/day (matching the mean sun).
  const Tle tle = build(700.0, 0.001, 98.19, 0.0);
  const Sgp4 prop(tle);
  const auto raan_of = [&](double t_min) {
    const auto st = prop.at(t_min);
    const auto h = st.position_km.cross(st.velocity_km_s);
    const Vec3 z{0.0, 0.0, 1.0};
    const Vec3 n = z.cross(h);
    return std::atan2(n.y, n.x);
  };
  double drift = raan_of(10.0 * 1440.0) - raan_of(0.0);
  drift = std::remainder(drift, kTwoPi) * kRadToDeg / 10.0;  // deg per day
  EXPECT_NEAR(drift, 0.9856, 0.08);
}

}  // namespace

// SGP4 propagator tests: physical invariants, consistency, error paths.
//
// We validate against physics rather than a stored ephemeris: orbit radius
// matches the elements, speed matches vis-viva, angular momentum is
// conserved to the J2-perturbation level, and the ground track repeats
// with the orbital period.
#include <gtest/gtest.h>

#include <cmath>

#include "orbit/sgp4.h"
#include "orbit/time.h"
#include "orbit/tle.h"
#include "two_body_oracle.h"

namespace {

using namespace sinet::orbit;

constexpr const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

Tle circular_tle(double altitude_km, double inclination_deg,
                 double ecc = 0.0005) {
  KeplerianElements kep;
  kep.altitude_km = altitude_km;
  kep.eccentricity = ecc;
  kep.inclination_deg = inclination_deg;
  kep.raan_deg = 40.0;
  kep.arg_perigee_deg = 10.0;
  kep.mean_anomaly_deg = 20.0;
  return make_tle("TEST", 90000, kep, julian_from_civil(2025, 3, 1));
}

TEST(Sgp4, IssStateAtEpochIsPhysical) {
  const Sgp4 prop(parse_tle(kIssLine1, kIssLine2));
  const TemeState st = prop.at(0.0);
  const double r = st.position_km.norm();
  const double v = st.velocity_km_s.norm();
  // ISS: ~6720 km radius, ~7.66 km/s.
  EXPECT_NEAR(r, 6724.0, 15.0);
  EXPECT_NEAR(v, 7.70, 0.05);
}

TEST(Sgp4, SpacetrackReport3TestCase) {
  // The canonical near-earth SGP4 verification satellite (88888) from
  // Spacetrack Report #3. Reference TEME states (WGS-72):
  //   t=0:   r = ( 2328.970, -5995.221,  1719.971) km
  //          v = ( 2.91207, -0.98342, -7.09082) km/s
  //   t=360: r = ( 2456.107, -6071.939,  1222.897) km
  // Checksums are computed here so the 68-column bodies stay readable.
  const std::string body1 =
      "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    8";
  const std::string body2 =
      "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  105";
  const std::string line1 =
      body1 + static_cast<char>('0' + tle_checksum(body1));
  const std::string line2 =
      body2 + static_cast<char>('0' + tle_checksum(body2));
  const Sgp4 prop(parse_tle(line1, line2));

  const TemeState st0 = prop.at(0.0);
  EXPECT_NEAR(st0.position_km.x, 2328.970, 2.0);
  EXPECT_NEAR(st0.position_km.y, -5995.221, 2.0);
  EXPECT_NEAR(st0.position_km.z, 1719.971, 2.0);
  EXPECT_NEAR(st0.velocity_km_s.x, 2.91207, 0.01);
  EXPECT_NEAR(st0.velocity_km_s.y, -0.98342, 0.01);
  EXPECT_NEAR(st0.velocity_km_s.z, -7.09082, 0.01);

  const TemeState st360 = prop.at(360.0);
  EXPECT_NEAR(st360.position_km.x, 2456.107, 5.0);
  EXPECT_NEAR(st360.position_km.y, -6071.939, 5.0);
  EXPECT_NEAR(st360.position_km.z, 1222.897, 5.0);
}

TEST(Sgp4, RadiusStaysWithinApsides) {
  const Tle tle = circular_tle(550.0, 97.6, 0.002);
  const Sgp4 prop(tle);
  const double a = sinet::testing::oracle_semi_major_axis_km(tle);
  for (double t = 0.0; t < 1440.0; t += 7.0) {
    const double r = prop.at(t).position_km.norm();
    EXPECT_GT(r, a * (1.0 - 0.004));  // margin over e for J2 oscillation
    EXPECT_LT(r, a * (1.0 + 0.004));
  }
}

TEST(Sgp4, VisVivaHolds) {
  const Tle tle = circular_tle(860.0, 49.97);
  const Sgp4 prop(tle);
  const double a = sinet::testing::oracle_semi_major_axis_km(tle);
  for (double t = 0.0; t < 200.0; t += 11.0) {
    const TemeState st = prop.at(t);
    const double r = st.position_km.norm();
    const double v = st.velocity_km_s.norm();
    const double vis_viva =
        std::sqrt(kMuEarthKm3PerS2 * (2.0 / r - 1.0 / a));
    EXPECT_NEAR(v, vis_viva, 0.02);
  }
}

TEST(Sgp4, PeriodMatchesMeanMotion) {
  const Tle tle = circular_tle(550.0, 97.6, 0.0001);
  const Sgp4 prop(tle);
  const double period_min = tle.period_minutes();
  const TemeState s0 = prop.at(0.0);
  const TemeState s1 = prop.at(period_min);
  // After one nodal period the position repeats to within tens of km
  // (J2 precession moves the node slightly).
  EXPECT_NEAR((s1.position_km - s0.position_km).norm(), 0.0, 80.0);
}

TEST(Sgp4, InclinationIsRespected) {
  // Orbital plane inclination = max |latitude| of the trajectory; check
  // via the z-component of the specific angular momentum.
  for (const double inc : {35.0, 49.97, 97.6}) {
    const Tle tle = circular_tle(700.0, inc);
    const Sgp4 prop(tle);
    const TemeState st = prop.at(17.0);
    const auto h = st.position_km.cross(st.velocity_km_s);
    const double inc_measured =
        std::acos(h.z / h.norm()) * kRadToDeg;
    EXPECT_NEAR(inc_measured, inc, 0.1);
  }
}

TEST(Sgp4, AngularMomentumDirectionStable) {
  const Tle tle = circular_tle(550.0, 97.6);
  const Sgp4 prop(tle);
  const auto h0 =
      prop.at(0.0).position_km.cross(prop.at(0.0).velocity_km_s)
          .normalized();
  const auto h1 =
      prop.at(300.0).position_km.cross(prop.at(300.0).velocity_km_s)
          .normalized();
  // J2 precesses the node ~ a few degrees/day; over 5 hours the plane
  // normal moves < 1.5 degrees.
  EXPECT_GT(h0.dot(h1), std::cos(1.5 * kDegToRad));
}

TEST(Sgp4, BackwardPropagationWorks) {
  const Sgp4 prop(parse_tle(kIssLine1, kIssLine2));
  const TemeState st = prop.at(-60.0);
  EXPECT_NEAR(st.position_km.norm(), 6724.0, 20.0);
}

TEST(Sgp4, AtJdMatchesTsince) {
  const Tle tle = circular_tle(860.0, 49.97);
  const Sgp4 prop(tle);
  const TemeState a = prop.at(30.0);
  const TemeState b = prop.at_jd(tle.epoch_jd + 30.0 / kMinutesPerDay);
  // jd arithmetic carries ~1e-10-day rounding (~1e-5 min), i.e. sub-metre.
  EXPECT_NEAR((a.position_km - b.position_km).norm(), 0.0, 1e-3);
}

TEST(Sgp4, RejectsDeepSpaceElements) {
  KeplerianElements kep;
  kep.altitude_km = 35786.0;
  const Tle geo = make_tle("GEO", 3, kep, kJdJ2000);
  EXPECT_THROW(Sgp4{geo}, std::invalid_argument);
}

TEST(Sgp4, RejectsDecayedOrbit) {
  // Perigee below 90 km.
  KeplerianElements kep;
  kep.altitude_km = 130.0;
  kep.eccentricity = 0.01;
  const Tle low = make_tle("DECAY", 4, kep, kJdJ2000);
  EXPECT_THROW(Sgp4{low}, sinet::orbit::PropagationError);
}

TEST(Sgp4, DragShrinksOrbitOverTime) {
  KeplerianElements kep;
  kep.altitude_km = 400.0;
  kep.eccentricity = 0.0005;
  kep.inclination_deg = 51.6;
  kep.bstar = 5e-4;  // heavy drag
  const Tle tle = make_tle("DRAG", 5, kep, julian_from_civil(2025, 3, 1));
  const Sgp4 prop(tle);
  const double r0 = prop.at(0.0).position_km.norm();
  const double r30 = prop.at(30.0 * 1440.0).position_km.norm();  // 30 days
  EXPECT_LT(r30, r0);
}

TEST(Sgp4, LowPerigeeUsesSimplifiedModelWithoutCrashing) {
  KeplerianElements kep;
  kep.altitude_km = 400.0;
  kep.eccentricity = 0.03;  // perigee ~ 197 km -> simple branch
  kep.inclination_deg = 51.6;
  const Tle tle = make_tle("LOWP", 6, kep, julian_from_civil(2025, 3, 1));
  const Sgp4 prop(tle);
  for (double t = 0.0; t <= 1440.0; t += 60.0) {
    const TemeState st = prop.at(t);
    EXPECT_GT(st.position_km.norm(), 6378.0);
  }
}

TEST(Sgp4, GroundSpeedOfLeoIsAbout7point6KmPerS) {
  // The paper's Appendix C cites 7.6 km/s at 500 km.
  const Tle tle = circular_tle(500.0, 97.4);
  const Sgp4 prop(tle);
  EXPECT_NEAR(prop.at(5.0).velocity_km_s.norm(), 7.61, 0.05);
}

}  // namespace

// Frame rotations, geodetic conversions and look angles.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "orbit/frames.h"
#include "orbit/geodetic.h"
#include "orbit/look_angles.h"
#include "orbit/time.h"

namespace {

using namespace sinet::orbit;

TEST(Geodetic, EcefRoundTrip) {
  const Geodetic sites[] = {
      {22.32, 114.17, 0.05},    // Hong Kong
      {-33.87, 151.21, 0.02},   // Sydney
      {51.51, -0.13, 0.02},     // London
      {89.9, 45.0, 0.1},        // near north pole
      {-89.9, -120.0, 0.0},     // near south pole
      {0.0, 0.0, 0.0},          // gulf of guinea
  };
  for (const Geodetic& g : sites) {
    const Vec3 ecef = geodetic_to_ecef(g);
    const Geodetic back = ecef_to_geodetic(ecef);
    EXPECT_NEAR(back.latitude_deg, g.latitude_deg, 1e-6);
    EXPECT_NEAR(back.longitude_deg, g.longitude_deg, 1e-6);
    EXPECT_NEAR(back.altitude_km, g.altitude_km, 1e-6);
  }
}

TEST(Geodetic, EquatorAndPoleRadii) {
  const Vec3 equator = geodetic_to_ecef({0.0, 0.0, 0.0});
  EXPECT_NEAR(equator.norm(), kWgs84SemiMajorKm, 1e-6);
  const Vec3 pole = geodetic_to_ecef({90.0, 0.0, 0.0});
  const double polar_radius = kWgs84SemiMajorKm * (1.0 - kWgs84Flattening);
  EXPECT_NEAR(pole.norm(), polar_radius, 1e-6);
  EXPECT_NEAR(pole.x, 0.0, 1e-9);
  EXPECT_NEAR(pole.y, 0.0, 1e-9);
}

TEST(Geodetic, InvalidLatitudeThrows) {
  EXPECT_THROW(geodetic_to_ecef({91.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geodetic_to_ecef({-91.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(Geodetic, NonFiniteInputThrows) {
  // NaN compares false with everything, so a range test written as
  // `lat < -90 || lat > 90` lets it through to a silent zero-pass scan.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(geodetic_to_ecef({nan, 114.2, 0.0}), std::invalid_argument);
  EXPECT_THROW(geodetic_to_ecef({22.3, inf, 0.0}), std::invalid_argument);
  EXPECT_THROW(geodetic_to_ecef({22.3, nan, 0.0}), std::invalid_argument);
  EXPECT_THROW(geodetic_to_ecef({22.3, 114.2, -inf}), std::invalid_argument);
  EXPECT_THROW(TopocentricFrame(Geodetic{nan, nan, 0.0}),
               std::invalid_argument);
}

TEST(Frames, RotationPreservesLength) {
  const JulianDate jd = julian_from_civil(2025, 3, 1, 6, 0, 0.0);
  const Vec3 r{6800.0, 1234.0, -2345.0};
  const Vec3 ecef = teme_to_ecef_state(r, {}, jd).position_km;
  EXPECT_NEAR(ecef.norm(), r.norm(), 1e-9);
}

TEST(Frames, ZAxisInvariant) {
  const JulianDate jd = julian_from_civil(2025, 3, 1);
  const Vec3 r{0.0, 0.0, 7000.0};
  const Vec3 ecef = teme_to_ecef_state(r, {}, jd).position_km;
  EXPECT_NEAR(ecef.x, 0.0, 1e-9);
  EXPECT_NEAR(ecef.y, 0.0, 1e-9);
  EXPECT_NEAR(ecef.z, 7000.0, 1e-9);
}

TEST(Frames, VelocityTransportTerm) {
  // A satellite stationary in TEME appears to move westward in ECEF at
  // omega x r.
  const JulianDate jd = julian_from_civil(2025, 3, 1);
  const Vec3 r{42164.0, 0.0, 0.0};
  const Vec3 v{0.0, 0.0, 0.0};
  const Vec3 v_ecef = teme_to_ecef_state(r, v, jd).velocity_km_s;
  EXPECT_NEAR(v_ecef.norm(), kEarthRotationRadPerSec * 42164.0, 1e-6);
}

TEST(LookAngles, SatelliteDirectlyOverhead) {
  const Geodetic obs{0.0, 0.0, 0.0};
  const TopocentricFrame frame(obs);
  // A point 500 km above the observer along the ECEF x-axis.
  const Vec3 obs_ecef = geodetic_to_ecef(obs);
  const Vec3 sat = obs_ecef * ((obs_ecef.norm() + 500.0) / obs_ecef.norm());
  const LookAngles la = look_angles(frame, sat, {0.0, 0.0, 0.0});
  EXPECT_NEAR(la.elevation_deg, 90.0, 0.2);
  EXPECT_NEAR(la.range_km, 500.0, 1.0);
}

TEST(LookAngles, CardinalAzimuths) {
  const Geodetic obs{0.0, 0.0, 0.0};
  const TopocentricFrame frame(obs);
  const Vec3 obs_ecef = geodetic_to_ecef(obs);
  // Slightly north of the observer at the same radius + altitude.
  const Vec3 north = geodetic_to_ecef({5.0, 0.0, 500.0});
  const LookAngles la_n = look_angles(frame, north, {});
  EXPECT_NEAR(la_n.azimuth_deg, 0.0, 1.0);
  const Vec3 east = geodetic_to_ecef({0.0, 5.0, 500.0});
  const LookAngles la_e = look_angles(frame, east, {});
  EXPECT_NEAR(la_e.azimuth_deg, 90.0, 1.0);
  const Vec3 south = geodetic_to_ecef({-5.0, 0.0, 500.0});
  const LookAngles la_s = look_angles(frame, south, {});
  EXPECT_NEAR(la_s.azimuth_deg, 180.0, 1.0);
  const Vec3 west = geodetic_to_ecef({0.0, -5.0, 500.0});
  const LookAngles la_w = look_angles(frame, west, {});
  EXPECT_NEAR(la_w.azimuth_deg, 270.0, 1.0);
  (void)obs_ecef;
}

TEST(LookAngles, NegativeElevationBelowHorizon) {
  const Geodetic obs{0.0, 0.0, 0.0};
  const TopocentricFrame frame(obs);
  // Antipodal satellite is far below the horizon.
  const Vec3 sat = geodetic_to_ecef({0.0, 180.0, 500.0});
  const LookAngles la = look_angles(frame, sat, {});
  EXPECT_LT(la.elevation_deg, -45.0);
}

TEST(LookAngles, RangeRateSign) {
  const Geodetic obs{0.0, 0.0, 0.0};
  const TopocentricFrame frame(obs);
  const Vec3 obs_ecef = geodetic_to_ecef(obs);
  const Vec3 sat = obs_ecef * ((obs_ecef.norm() + 500.0) / obs_ecef.norm());
  // Moving straight up: receding.
  const Vec3 up = obs_ecef.normalized();
  const LookAngles receding = look_angles(frame, sat, up * 7.0);
  EXPECT_GT(receding.range_rate_km_s, 0.0);
  const LookAngles approaching = look_angles(frame, sat, up * -7.0);
  EXPECT_LT(approaching.range_rate_km_s, 0.0);
}

TEST(Doppler, ShiftSignAndMagnitude) {
  // Approaching at 7.5 km/s on 433 MHz: +10.8 kHz.
  const double shift = doppler_shift_hz(-7.5, 433e6);
  EXPECT_NEAR(shift, 7.5 / 299792.458 * 433e6, 1.0);
  EXPECT_GT(shift, 0.0);
  EXPECT_LT(doppler_shift_hz(7.5, 433e6), 0.0);
  EXPECT_NEAR(doppler_shift_hz(0.0, 433e6), 0.0, 1e-12);
}

}  // namespace

// Solar ephemeris and eclipse geometry.
#include <gtest/gtest.h>

#include <cmath>

#include "core/passive_campaign.h"
#include "orbit/sun.h"
#include "orbit/sgp4.h"
#include "orbit/time.h"
#include "orbit/tle.h"

namespace {

using namespace sinet::orbit;

TEST(Sun, DirectionIsUnitVector) {
  for (int d = 0; d < 366; d += 30) {
    const Vec3 s = sun_direction_teme(kJdJ2000 + d);
    EXPECT_NEAR(s.norm(), 1.0, 1e-9);
  }
}

TEST(Sun, SeasonsHaveCorrectDeclination) {
  // Summer solstice: sun ~+23.4 deg declination; winter: ~-23.4;
  // equinoxes: ~0.
  const Vec3 summer =
      sun_direction_teme(julian_from_civil(2025, 6, 21, 12, 0, 0.0));
  EXPECT_NEAR(std::asin(summer.z) * kRadToDeg, 23.4, 0.5);
  const Vec3 winter =
      sun_direction_teme(julian_from_civil(2025, 12, 21, 12, 0, 0.0));
  EXPECT_NEAR(std::asin(winter.z) * kRadToDeg, -23.4, 0.5);
  const Vec3 spring =
      sun_direction_teme(julian_from_civil(2025, 3, 20, 12, 0, 0.0));
  EXPECT_NEAR(std::asin(spring.z) * kRadToDeg, 0.0, 0.7);
}

TEST(Sun, ShadowRequiresAntiSolarSide) {
  const JulianDate jd = julian_from_civil(2025, 3, 20, 12, 0, 0.0);
  const Vec3 s = sun_direction_teme(jd);
  // Directly behind Earth at LEO altitude: in shadow.
  EXPECT_TRUE(in_earth_shadow(s * -6900.0, jd));
  // Toward the sun: sunlit.
  EXPECT_FALSE(in_earth_shadow(s * 6900.0, jd));
  // Anti-solar direction but far off-axis: sunlit.
  Vec3 perp{-s.y, s.x, 0.0};
  perp = perp.normalized() * 7000.0;
  EXPECT_FALSE(in_earth_shadow(perp - s * 2000.0, jd));
}

TEST(Sun, LeoEclipseFractionIsPhysical) {
  // A 550 km, 49.97-deg orbit near equinox spends roughly a third of
  // each revolution in shadow.
  KeplerianElements kep;
  kep.altitude_km = 550.0;
  kep.inclination_deg = 49.97;
  const Tle tle = make_tle("ECL", 94000, kep, julian_from_civil(2025, 3, 20));
  const Sgp4 prop(tle);
  std::size_t total = 0, shadowed = 0;
  for (JulianDate jd = tle.epoch_jd; jd <= tle.epoch_jd + 0.5;
       jd += 30.0 / kSecondsPerDay) {
    ++total;
    if (in_earth_shadow(prop.at_jd(jd).position_km, jd)) ++shadowed;
  }
  const double frac =
      static_cast<double>(shadowed) / static_cast<double>(total);
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.45);
}

TEST(Sun, EclipseGatingReducesBeaconsInCampaign) {
  sinet::core::PassiveCampaignConfig cfg =
      sinet::core::default_campaign(1.0);
  cfg.sites = {sinet::core::paper_site("HK")};
  cfg.constellations = {sinet::orbit::paper_constellation("FOSSA")};
  const auto open = sinet::core::run_passive_campaign(cfg);
  cfg.eclipse_gates_beacons = true;
  const auto gated = sinet::core::run_passive_campaign(cfg);
  EXPECT_LT(gated.beacons_transmitted, open.beacons_transmitted);
  EXPECT_GT(gated.beacons_transmitted, 0u);
}

}  // namespace

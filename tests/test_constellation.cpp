// Constellation catalog and synthetic TLE generation (paper Table 3).
#include <gtest/gtest.h>

#include <set>

#include "orbit/constellation.h"
#include "orbit/sgp4.h"
#include "orbit/time.h"
#include "two_body_oracle.h"

namespace {

using namespace sinet::orbit;

TEST(Catalog, FourConstellationsWithPaperSizes) {
  const auto all = paper_constellations();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(paper_constellation("Tianqi").total_satellites(), 22);
  EXPECT_EQ(paper_constellation("FOSSA").total_satellites(), 3);
  EXPECT_EQ(paper_constellation("PICO").total_satellites(), 9);
  EXPECT_EQ(paper_constellation("CSTP").total_satellites(), 5);
}

TEST(Catalog, FrequenciesMatchTable3) {
  EXPECT_DOUBLE_EQ(paper_constellation("Tianqi").dts_frequency_hz, 400.45e6);
  EXPECT_DOUBLE_EQ(paper_constellation("FOSSA").dts_frequency_hz, 401.7e6);
  EXPECT_DOUBLE_EQ(paper_constellation("PICO").dts_frequency_hz, 436.26e6);
  EXPECT_DOUBLE_EQ(paper_constellation("CSTP").dts_frequency_hz, 437.985e6);
}

TEST(Catalog, TianqiHasThreeGenerations) {
  const auto tq = paper_constellation("Tianqi");
  ASSERT_EQ(tq.groups.size(), 3u);
  EXPECT_EQ(tq.groups[0].count, 16);
  EXPECT_NEAR(tq.groups[0].inclination_deg, 49.97, 1e-9);
  EXPECT_EQ(tq.groups[1].count, 4);
  EXPECT_NEAR(tq.groups[1].inclination_deg, 35.0, 1e-9);
  EXPECT_EQ(tq.groups[2].count, 2);
  EXPECT_NEAR(tq.groups[2].inclination_deg, 97.61, 1e-9);
}

TEST(Catalog, UnknownNameThrows) {
  EXPECT_THROW(paper_constellation("Starlink"), std::invalid_argument);
}

TEST(GenerateTles, CountsAndNames) {
  const auto spec = paper_constellation("Tianqi");
  const auto tles = generate_tles(spec, julian_from_civil(2025, 3, 1));
  ASSERT_EQ(tles.size(), 22u);
  EXPECT_EQ(tles.front().name, "Tianqi-01");
  EXPECT_EQ(tles.back().name, "Tianqi-22");
  // Catalog numbers are consecutive and unique.
  std::set<int> catalogs;
  for (const Tle& t : tles) catalogs.insert(t.catalog_number);
  EXPECT_EQ(catalogs.size(), tles.size());
}

TEST(GenerateTles, AltitudesInsidePublishedBands) {
  for (const auto& spec : paper_constellations()) {
    const auto tles = generate_tles(spec, julian_from_civil(2025, 3, 1));
    std::size_t idx = 0;
    for (const OrbitalGroup& g : spec.groups) {
      for (int i = 0; i < g.count; ++i, ++idx) {
        const double alt =
            sinet::testing::oracle_mean_altitude_km(tles[idx]);
        EXPECT_GE(alt, g.altitude_low_km - 2.0) << spec.name;
        EXPECT_LE(alt, g.altitude_high_km + 2.0) << spec.name;
        EXPECT_NEAR(tles[idx].inclination_deg, g.inclination_deg, 1e-6);
      }
    }
  }
}

TEST(GenerateTles, AllPropagatable) {
  for (const auto& spec : paper_constellations()) {
    for (const Tle& tle : generate_tles(spec, julian_from_civil(2025, 3, 1))) {
      const Sgp4 prop(tle);
      const TemeState st = prop.at(100.0);
      EXPECT_GT(st.position_km.norm(), 6378.0 + 400.0);
      EXPECT_LT(st.position_km.norm(), 6378.0 + 1000.0);
    }
  }
}

TEST(GenerateTles, RaanSpreadAvoidsClustering) {
  const auto spec = paper_constellation("Tianqi");
  const auto tles = generate_tles(spec, julian_from_civil(2025, 3, 1));
  // First generation (16 satellites): RAANs should span > 180 degrees.
  double lo = 360.0, hi = 0.0;
  for (int i = 0; i < 16; ++i) {
    lo = std::min(lo, tles[i].raan_deg);
    hi = std::max(hi, tles[i].raan_deg);
  }
  EXPECT_GT(hi - lo, 180.0);
}

TEST(GenerateTles, DeterministicAcrossCalls) {
  const auto spec = paper_constellation("PICO");
  const auto a = generate_tles(spec, julian_from_civil(2025, 3, 1));
  const auto b = generate_tles(spec, julian_from_civil(2025, 3, 1));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].raan_deg, b[i].raan_deg);
    EXPECT_DOUBLE_EQ(a[i].mean_anomaly_deg, b[i].mean_anomaly_deg);
  }
}

TEST(Footprint, MatchesTable3Values) {
  // Table 3 footprints: Tianqi gen-1 (815.7-897.5 km): 3.27e7 km^2;
  // FOSSA (~510 km): 1.27e7; PICO (~515 km): 1.31e7; CSTP (~496 km):
  // 1.24e7. The Tianqi row matches a 0-degree edge-of-coverage mask;
  // the three ~510 km rows are only consistent with an effective ~5
  // degree mask (the paper's column mixes conventions — documented in
  // EXPERIMENTS.md). Both match our formula within ~10%.
  EXPECT_NEAR(footprint_area_km2(856.6, 0.0), 3.27e7, 0.1 * 3.27e7);
  EXPECT_NEAR(footprint_area_km2(510.4, 5.0), 1.27e7, 0.1 * 1.27e7);
  EXPECT_NEAR(footprint_area_km2(515.0, 5.0), 1.31e7, 0.1 * 1.31e7);
  EXPECT_NEAR(footprint_area_km2(496.0, 5.0), 1.24e7, 0.1 * 1.24e7);
}

TEST(Footprint, MonotonicInAltitudeAndMask) {
  EXPECT_GT(footprint_area_km2(800.0), footprint_area_km2(500.0));
  EXPECT_GT(footprint_area_km2(500.0, 0.0), footprint_area_km2(500.0, 10.0));
  EXPECT_THROW(footprint_area_km2(0.0), std::invalid_argument);
}

TEST(SlantRange, HorizonAndZenith) {
  // At zenith the slant range equals the altitude.
  EXPECT_NEAR(slant_range_km(500.0, 90.0), 500.0, 1.0);
  // At the horizon, a 500 km satellite is ~2,600 km away — the paper's
  // Fig 8 observes DtS links of 600-2,000 km for ~500 km orbits.
  const double horizon = slant_range_km(500.0, 0.0);
  EXPECT_GT(horizon, 2000.0);
  EXPECT_LT(horizon, 3000.0);
  // Tianqi at ~860 km: horizon range ~3,400 km (paper: up to 3,500 km).
  EXPECT_NEAR(slant_range_km(860.0, 0.0), 3400.0, 150.0);
  EXPECT_THROW(slant_range_km(-1.0, 10.0), std::invalid_argument);
}

TEST(Catalog, BeaconRadioProfilesDiffer) {
  // Commercial Tianqi: fast SF, higher EIRP. PocketQube fleets: slower
  // SFs at lower EIRP (they trade airtime for sensitivity).
  const auto tianqi = paper_constellation("Tianqi");
  EXPECT_EQ(tianqi.beacon_sf, 10);
  const auto cstp = paper_constellation("CSTP");
  EXPECT_EQ(cstp.beacon_sf, 12);
  EXPECT_GT(tianqi.beacon_eirp_dbm, cstp.beacon_eirp_dbm);
  for (const auto& spec : paper_constellations()) {
    EXPECT_GE(spec.beacon_sf, 7);
    EXPECT_LE(spec.beacon_sf, 12);
    EXPECT_GT(spec.beacon_eirp_dbm, 0.0);
    EXPECT_LT(spec.beacon_eirp_dbm, 30.0);
  }
}

TEST(SlantRange, MonotonicDecreasingInElevation) {
  double prev = slant_range_km(550.0, 0.0);
  for (double el = 5.0; el <= 90.0; el += 5.0) {
    const double r = slant_range_km(550.0, el);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

}  // namespace

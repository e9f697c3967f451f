// Pass prediction: window detection, refinement, merging, gap statistics.
// Window tests run the production grid scan (predict_passes_grid) on one
// (satellite, site) pair.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "orbit/frames.h"
#include "orbit/passes.h"
#include "orbit/time.h"
#include "orbit/tle.h"

namespace {

using namespace sinet::orbit;

/// Windows of one satellite over one site through the production scan.
std::vector<ContactWindow> scan_pair(const Sgp4& prop, const Geodetic& site,
                                     JulianDate jd_start, JulianDate jd_end,
                                     const PassPredictionOptions& opts = {}) {
  return predict_passes_grid({&prop}, {GridObserver{site}}, jd_start, jd_end,
                             opts, /*threads=*/1)[0][0];
}

Tle polar_tle(double altitude_km = 550.0) {
  KeplerianElements kep;
  kep.altitude_km = altitude_km;
  kep.eccentricity = 0.0005;
  kep.inclination_deg = 97.6;  // sun-synchronous-like: covers all latitudes
  return make_tle("POLAR", 91000, kep, julian_from_civil(2025, 3, 1));
}

const Geodetic kHongKong{22.32, 114.17, 0.05};

TEST(Passes, FindsPassesWithinADay) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const JulianDate start = tle.epoch_jd;
  const auto windows = scan_pair(prop, kHongKong, start, start + 1.0);
  // A 550 km polar orbit yields roughly 2-6 visible passes per day at
  // mid latitude.
  EXPECT_GE(windows.size(), 2u);
  EXPECT_LE(windows.size(), 8u);
}

TEST(Passes, WindowsAreOrderedAndDisjoint) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const JulianDate start = tle.epoch_jd;
  const auto windows = scan_pair(prop, kHongKong, start, start + 2.0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_LT(windows[i].aos_jd, windows[i].los_jd);
    EXPECT_GE(windows[i].tca_jd, windows[i].aos_jd);
    EXPECT_LE(windows[i].tca_jd, windows[i].los_jd);
    if (i > 0) {
      EXPECT_GT(windows[i].aos_jd, windows[i - 1].los_jd);
    }
  }
}

TEST(Passes, DurationsArePhysical) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const auto windows =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 2.0);
  ASSERT_FALSE(windows.empty());
  for (const ContactWindow& w : windows) {
    // LEO passes above the horizon last between ~1 and ~13 minutes.
    EXPECT_GT(w.duration_s(), 30.0);
    EXPECT_LT(w.duration_s(), 16.0 * 60.0);
    EXPECT_GT(w.max_elevation_deg, 0.0);
    EXPECT_LE(w.max_elevation_deg, 90.0);
  }
}

TEST(Passes, ElevationAboveMaskInsideWindow) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  PassPredictionOptions opts;
  opts.min_elevation_deg = 10.0;
  const auto windows =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 2.0, opts);
  for (const ContactWindow& w : windows) {
    const auto samples = sample_pass(prop, kHongKong, w, 10.0);
    for (std::size_t i = 1; i + 1 < samples.size(); ++i)
      EXPECT_GE(samples[i].look.elevation_deg, 10.0 - 0.5);
  }
}

TEST(Passes, HigherMaskGivesFewerShorterWindows) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  PassPredictionOptions lo, hi;
  lo.min_elevation_deg = 0.0;
  hi.min_elevation_deg = 20.0;
  const auto w0 =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 3.0, lo);
  const auto w20 =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 3.0, hi);
  EXPECT_GE(w0.size(), w20.size());
  double d0 = 0.0, d20 = 0.0;
  for (const auto& w : w0) d0 += w.duration_s();
  for (const auto& w : w20) d20 += w.duration_s();
  EXPECT_GT(d0, d20);
}

TEST(Passes, RefinementIsTight) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  PassPredictionOptions opts;
  opts.refine_tolerance_s = 0.5;
  const auto windows =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 1.0, opts);
  ASSERT_FALSE(windows.empty());
  // Elevation at AOS/LOS should be within a small band around the mask.
  for (const ContactWindow& w : windows) {
    const auto at_aos = sample_geometry(prop, kHongKong, w.aos_jd);
    const auto at_los = sample_geometry(prop, kHongKong, w.los_jd);
    EXPECT_NEAR(at_aos.look.elevation_deg, 0.0, 0.2);
    EXPECT_NEAR(at_los.look.elevation_deg, 0.0, 0.2);
  }
}

TEST(Passes, InvalidArguments) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const std::vector<GridObserver> site{GridObserver{kHongKong}};
  const JulianDate jd0 = tle.epoch_jd;
  ContactWindowCache cache;
  EXPECT_THROW(predict_passes_grid({&prop}, site, jd0, jd0 - 1.0),
               std::invalid_argument);
  EXPECT_THROW(
      predict_passes_grid_cached({tle}, site, jd0, jd0 - 1.0, {}, 0, &cache),
      std::invalid_argument);
  PassPredictionOptions opts;
  opts.coarse_step_s = 0.0;
  EXPECT_THROW(predict_passes_grid({&prop}, site, jd0, jd0 + 1.0, opts),
               std::invalid_argument);
  EXPECT_THROW(predict_passes_grid_cached({tle}, site, jd0, jd0 + 1.0, opts,
                                          0, &cache),
               std::invalid_argument);
  EXPECT_THROW(predict_passes_grid({nullptr}, site, jd0, jd0 + 1.0),
               std::invalid_argument);
  EXPECT_THROW(
      predict_passes_grid_cached({tle}, site, jd0, jd0 + 1.0, {}, 0, nullptr),
      std::invalid_argument);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// A NaN or infinite span bound (or step) passes an `end < start` check
// and never ends the scan grid's accumulation loop. Both entry points
// reject it up front: with nothing to scan, and — for the cached one —
// before a NaN key reaches the cache's ordered map.
TEST(Passes, RejectsNonFiniteSpan) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const std::vector<GridObserver> site{GridObserver{kHongKong}};
  const JulianDate jd0 = tle.epoch_jd;
  ContactWindowCache cache;
  PassPredictionOptions nan_step;
  nan_step.coarse_step_s = kNaN;
  for (const double bad : {kNaN, kInf, -kInf}) {
    for (const auto& [start, end] :
         {std::pair{jd0, bad}, std::pair{bad, jd0}, std::pair{bad, bad}}) {
      EXPECT_THROW(predict_passes_grid({&prop}, site, start, end),
                   std::invalid_argument);
      EXPECT_THROW(predict_passes_grid({}, {}, start, end),
                   std::invalid_argument);
      EXPECT_THROW(
          predict_passes_grid_cached({tle}, site, start, end, {}, 0, &cache),
          std::invalid_argument);
      EXPECT_THROW(predict_passes_grid_cached({}, {}, start, end, {}, 0,
                                              &cache),
                   std::invalid_argument);
    }
  }
  EXPECT_THROW(predict_passes_grid({&prop}, site, jd0, jd0 + 1.0, nan_step),
               std::invalid_argument);
  EXPECT_THROW(predict_passes_grid_cached({tle}, site, jd0, jd0 + 1.0,
                                          nan_step, 0, &cache),
               std::invalid_argument);
  const ContactWindowCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 0u);
  EXPECT_EQ(st.entries, 0u);
}

TEST(Passes, SamplePassCoversWindow) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const auto windows =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 1.0);
  ASSERT_FALSE(windows.empty());
  const auto samples = sample_pass(prop, kHongKong, windows[0], 5.0);
  EXPECT_GE(samples.size(),
            static_cast<std::size_t>(windows[0].duration_s() / 5.0));
  EXPECT_NEAR(samples.front().jd, windows[0].aos_jd, 1e-9);
  EXPECT_NEAR(samples.back().jd, windows[0].los_jd, 1e-9);
  EXPECT_THROW(sample_pass(prop, kHongKong, windows[0], 0.0),
               std::invalid_argument);
}

TEST(Passes, SamplePassExactMultipleHasNoDuplicateTerminal) {
  const Tle tle = polar_tle();
  const Sgp4 prop(tle);
  const auto windows =
      scan_pair(prop, kHongKong, tle.epoch_jd, tle.epoch_jd + 1.0);
  ASSERT_FALSE(windows.empty());

  // Force a window whose duration is an exact multiple of the step: the
  // grid's last point coincides with LOS and must not be emitted twice.
  const double step_s = 5.0;
  ContactWindow w = windows[0];
  w.los_jd = w.aos_jd + (100.0 * step_s) / kSecondsPerDay;
  const auto samples = sample_pass(prop, kHongKong, w, step_s);
  EXPECT_EQ(samples.size(), 101u);
  EXPECT_NEAR(samples.front().jd, w.aos_jd, 1e-12);
  EXPECT_NEAR(samples.back().jd, w.los_jd, 1e-12);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt_s = (samples[i].jd - samples[i - 1].jd) * kSecondsPerDay;
    EXPECT_GT(dt_s, 0.5 * step_s) << "near-duplicate sample at i=" << i;
  }
}

TEST(Passes, ObserverAtSubsatellitePointSeesZenith) {
  // Cross-module consistency: put an observer exactly at the nadir point
  // (TEME -> ECEF -> geodetic) and the look angles must report the
  // satellite (nearly) overhead at a range equal to its altitude.
  KeplerianElements kep;
  kep.altitude_km = 700.0;
  kep.inclination_deg = 49.97;
  kep.eccentricity = 0.0005;
  const Tle tle = make_tle("GT", 93000, kep, julian_from_civil(2025, 3, 1));
  const Sgp4 prop(tle);
  for (JulianDate jd = tle.epoch_jd; jd <= tle.epoch_jd + 0.05;
       jd += 120.0 / kSecondsPerDay) {
    const TemeState st = prop.at_jd(jd);
    const Geodetic nadir = ecef_to_geodetic(
        teme_to_ecef_state(st.position_km, st.velocity_km_s, jd).position_km);
    Geodetic observer = nadir;
    observer.altitude_km = 0.0;
    const auto sample = sample_geometry(prop, observer, jd);
    EXPECT_GT(sample.look.elevation_deg, 89.0);
    EXPECT_NEAR(sample.look.range_km, nadir.altitude_km, 2.0);
  }
}

TEST(MergeWindows, OverlapsMerge) {
  std::vector<ContactWindow> ws(3);
  ws[0] = {100.0, 100.01, 100.005, 30.0};
  ws[1] = {100.008, 100.02, 100.015, 50.0};  // overlaps ws[0]
  ws[2] = {100.05, 100.06, 100.055, 20.0};
  const auto merged = merge_windows(ws);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].aos_jd, 100.0);
  EXPECT_DOUBLE_EQ(merged[0].los_jd, 100.02);
  EXPECT_DOUBLE_EQ(merged[0].max_elevation_deg, 50.0);
}

TEST(MergeWindows, UnsortedInputHandled) {
  std::vector<ContactWindow> ws(2);
  ws[0] = {200.5, 200.6, 200.55, 10.0};
  ws[1] = {200.1, 200.2, 200.15, 20.0};
  const auto merged = merge_windows(ws);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_LT(merged[0].aos_jd, merged[1].aos_jd);
}

TEST(DailyVisibility, CountsMergedTime) {
  std::vector<ContactWindow> ws(2);
  // Two 0.01-day windows inside a 1-day span = 0.02 days visible.
  ws[0] = {300.1, 300.11, 300.105, 45.0};
  ws[1] = {300.5, 300.51, 300.505, 45.0};
  const double per_day = daily_visible_seconds(ws, 300.0, 301.0);
  EXPECT_NEAR(per_day, 0.02 * kSecondsPerDay, 1.0);
  EXPECT_THROW(daily_visible_seconds(ws, 301.0, 300.0),
               std::invalid_argument);
}

TEST(DailyVisibility, TruncatesAtSpanEdges) {
  std::vector<ContactWindow> ws(1);
  ws[0] = {299.95, 300.05, 300.0, 45.0};  // straddles span start
  const double per_day = daily_visible_seconds(ws, 300.0, 301.0);
  EXPECT_NEAR(per_day, 0.05 * kSecondsPerDay, 1.0);
}

TEST(ContactGaps, ComputedBetweenMergedWindows) {
  std::vector<ContactWindow> ws(3);
  ws[0] = {400.0, 400.01, 400.005, 10.0};
  ws[1] = {400.02, 400.03, 400.025, 10.0};
  ws[2] = {400.06, 400.07, 400.065, 10.0};
  const auto gaps = contact_gaps_s(ws);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_NEAR(gaps[0], 0.01 * kSecondsPerDay, 0.5);
  EXPECT_NEAR(gaps[1], 0.03 * kSecondsPerDay, 0.5);
  EXPECT_TRUE(contact_gaps_s({}).empty());
}

}  // namespace

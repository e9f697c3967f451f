// Availability analytics (paper Fig 3a machinery).
#include <gtest/gtest.h>

#include "core/availability.h"
#include "core/scenario.h"

namespace {

using namespace sinet::core;
using sinet::orbit::paper_constellation;

const AvailabilityOptions kFast{1.0, 0.0, 60.0};

TEST(Availability, MoreSatellitesMoreHours) {
  const auto site = paper_site("HK");
  const auto jd = campaign_epoch_jd();
  const double fossa =
      daily_presence_hours(paper_constellation("FOSSA"), site, jd, kFast);
  const double pico =
      daily_presence_hours(paper_constellation("PICO"), site, jd, kFast);
  const double tianqi =
      daily_presence_hours(paper_constellation("Tianqi"), site, jd, kFast);
  EXPECT_LT(fossa, pico);
  EXPECT_LT(pico, tianqi);
  EXPECT_GT(fossa, 0.5);
  EXPECT_LT(tianqi, 24.0);
}

TEST(Availability, MergedNeverExceedsSumOfPerSatellite) {
  const auto site = paper_site("SYD");
  const auto jd = campaign_epoch_jd();
  const auto spec = paper_constellation("CSTP");
  const double merged = daily_presence_hours(spec, site, jd, kFast);
  // Each satellite's own visible hours, from the scan the union merges.
  sinet::orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = kFast.min_elevation_deg;
  popts.coarse_step_s = kFast.pass_scan_step_s;
  const double end_jd = jd + kFast.duration_days;
  const auto per_sat = sinet::orbit::predict_passes_grid_cached(
      sinet::orbit::generate_tles(spec, jd),
      {sinet::orbit::GridObserver{site.location}}, jd, end_jd, popts);
  ASSERT_EQ(per_sat.size(), 5u);
  double sum = 0.0;
  for (const auto& windows : per_sat) {
    const double h =
        sinet::orbit::daily_visible_seconds(windows[0], jd, end_jd) / 3600.0;
    EXPECT_GE(h, 0.0);
    EXPECT_LT(h, 6.0);  // a single ~500 km satellite: a few hours/day
    sum += h;
  }
  EXPECT_LE(merged, sum + 1e-9);  // overlaps only ever reduce the union
  EXPECT_GE(merged, sum / 5.0);   // but the union beats any single one
}

TEST(Availability, SizeSweepIsMonotone) {
  const auto site = paper_site("HK");
  const auto jd = campaign_epoch_jd();
  const auto hours = presence_vs_constellation_size(
      paper_constellation("Tianqi"), site, jd, {4, 10, 16, 22}, kFast);
  ASSERT_EQ(hours.size(), 4u);
  for (std::size_t i = 1; i < hours.size(); ++i)
    EXPECT_GE(hours[i], hours[i - 1] - 1e-9);
}

TEST(Availability, SizeSweepValidation) {
  const auto site = paper_site("HK");
  const auto jd = campaign_epoch_jd();
  const auto spec = paper_constellation("FOSSA");
  EXPECT_THROW(
      presence_vs_constellation_size(spec, site, jd, {0}, kFast),
      std::invalid_argument);
  EXPECT_THROW(
      presence_vs_constellation_size(spec, site, jd, {4}, kFast),
      std::invalid_argument);  // FOSSA has only 3 satellites
}

TEST(Availability, HigherMaskShrinksPresence) {
  const auto site = paper_site("LDN");
  const auto jd = campaign_epoch_jd();
  AvailabilityOptions open = kFast;
  AvailabilityOptions masked = kFast;
  masked.min_elevation_deg = 15.0;
  const auto spec = paper_constellation("PICO");
  EXPECT_GT(daily_presence_hours(spec, site, jd, open),
            daily_presence_hours(spec, site, jd, masked));
}

TEST(Availability, InvalidDurationThrows) {
  AvailabilityOptions bad = kFast;
  bad.duration_days = 0.0;
  EXPECT_THROW(constellation_windows(paper_constellation("FOSSA"),
                                     paper_site("HK"), campaign_epoch_jd(),
                                     bad),
               std::invalid_argument);
}

TEST(Availability, StableAcrossLongitude) {
  // The paper notes availability is roughly location-independent at
  // similar latitudes (Fig 3a): compare HK with a same-latitude probe at
  // a different longitude.
  MeasurementSite probe = paper_site("HK");
  probe.location.longitude_deg = -60.0;
  const auto spec = paper_constellation("Tianqi");
  AvailabilityOptions two_day = kFast;
  two_day.duration_days = 2.0;
  const double hk = daily_presence_hours(spec, paper_site("HK"),
                                         campaign_epoch_jd(), two_day);
  const double other =
      daily_presence_hours(spec, probe, campaign_epoch_jd(), two_day);
  EXPECT_NEAR(hk, other, hk * 0.2);
}

}  // namespace

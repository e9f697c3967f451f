// Contact-window analytics, exercised both on synthetic hand-built data
// and on a real (small) campaign output.
#include <gtest/gtest.h>

#include "core/contact_analysis.h"
#include "core/passive_campaign.h"

namespace {

using namespace sinet::core;
using sinet::orbit::ContactWindow;

/// Hand-built campaign: one satellite, two windows; beacons received only
/// in the middle of the first window.
PassiveCampaignResult synthetic_campaign() {
  PassiveCampaignResult res;
  SatelliteWindows sw;
  sw.satellite = "SAT-1";
  const double day = sinet::orbit::kSecondsPerDay;
  ContactWindow w1;
  w1.aos_jd = 100.0;
  w1.los_jd = 100.0 + 600.0 / day;  // 600 s window
  w1.tca_jd = 100.0 + 300.0 / day;
  w1.max_elevation_deg = 40.0;
  ContactWindow w2;
  w2.aos_jd = 100.0 + 3600.0 / day;  // one hour later
  w2.los_jd = w2.aos_jd + 500.0 / day;
  w2.tca_jd = w2.aos_jd + 250.0 / day;
  w2.max_elevation_deg = 30.0;
  sw.windows = {w1, w2};
  res.theoretical.emplace(CellKey{"HK", "Test"},
                          std::vector<SatelliteWindows>{sw});

  // Beacons at 250-350 s into window 1 (mid-window only), none in w2.
  const double aos_unix = sinet::orbit::julian_to_unix(w1.aos_jd);
  for (double t = 250.0; t <= 350.0; t += 10.0) {
    sinet::trace::BeaconRecord r;
    r.time_unix_s = aos_unix + t;
    r.station = "HK-1";
    r.constellation = "Test";
    r.satellite = "SAT-1";
    r.weather = "sunny";
    res.traces.add(r);
  }
  return res;
}

TEST(ContactAnalysis, MatchesTracesToWindows) {
  const auto res = synthetic_campaign();
  const auto outcomes = analyze_contacts(res, {"HK", "Test"}, 10.0);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].beacons_received, 11u);
  EXPECT_TRUE(outcomes[0].effective());
  EXPECT_EQ(outcomes[1].beacons_received, 0u);
  EXPECT_FALSE(outcomes[1].effective());
}

TEST(ContactAnalysis, EffectiveDurationIsFirstToLast) {
  const auto res = synthetic_campaign();
  const auto outcomes = analyze_contacts(res, {"HK", "Test"}, 10.0);
  EXPECT_NEAR(outcomes[0].theoretical_duration_s(), 600.0, 0.1);
  EXPECT_NEAR(outcomes[0].effective_duration_s(), 100.0, 0.1);
  EXPECT_DOUBLE_EQ(outcomes[1].effective_duration_s(), 0.0);
}

TEST(ContactAnalysis, SummaryShrinkAndIntervals) {
  const auto res = synthetic_campaign();
  const auto outcomes = analyze_contacts(res, {"HK", "Test"}, 10.0);
  const ContactStats stats = summarize_contacts(outcomes);
  EXPECT_EQ(stats.contact_count, 2u);
  EXPECT_EQ(stats.effective_contact_count, 1u);
  EXPECT_NEAR(stats.mean_theoretical_duration_s, 550.0, 0.5);
  EXPECT_NEAR(stats.mean_effective_duration_s, 100.0, 0.5);
  // Shrink = 1 - 100/550 ~ 0.818 — the paper's 73.7-89.2% regime.
  EXPECT_NEAR(stats.duration_shrink_fraction, 1.0 - 100.0 / 550.0, 1e-3);
  // Theoretical gap: 3600 - 600 = 3000 s. No second effective contact
  // -> no effective interval.
  EXPECT_NEAR(stats.mean_theoretical_interval_s, 3000.0, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_effective_interval_s, 0.0);
}

TEST(ContactAnalysis, ReceptionRatio) {
  const auto res = synthetic_campaign();
  const auto outcomes = analyze_contacts(res, {"HK", "Test"}, 10.0);
  // 11 received of the expected slot grid (60 or 61 depending on fp
  // rounding of the 600 s duration).
  EXPECT_NEAR(outcomes[0].reception_ratio(),
              11.0 / static_cast<double>(outcomes[0].beacons_expected),
              1e-9);
  EXPECT_GE(outcomes[0].beacons_expected, 60u);
  EXPECT_LE(outcomes[0].beacons_expected, 61u);
}

TEST(ContactAnalysis, BeaconPositionsNormalized) {
  const auto res = synthetic_campaign();
  const auto pos = beacon_positions_in_window(res, {"HK", "Test"});
  ASSERT_EQ(pos.size(), 11u);
  for (const double p : pos) {
    EXPECT_GE(p, 250.0 / 600.0 - 1e-6);
    EXPECT_LE(p, 350.0 / 600.0 + 1e-6);
  }
  // All receptions are mid-window here.
  EXPECT_DOUBLE_EQ(mid_window_fraction(pos), 1.0);
  EXPECT_DOUBLE_EQ(mid_window_fraction({}), 0.0);
}

TEST(ContactAnalysis, UnknownCellThrows) {
  const auto res = synthetic_campaign();
  EXPECT_THROW(analyze_contacts(res, {"HK", "Nope"}, 10.0),
               std::invalid_argument);
  EXPECT_THROW(analyze_contacts(res, {"HK", "Test"}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(beacon_positions_in_window(res, {"ZZ", "Test"}),
               std::invalid_argument);
}

TEST(ContactAnalysis, EndToEndOnRealCampaign) {
  PassiveCampaignConfig cfg = default_campaign(1.0);
  cfg.sites = {paper_site("HK")};
  cfg.constellations = {sinet::orbit::paper_constellation("FOSSA")};
  const auto res = run_passive_campaign(cfg);
  const auto outcomes = analyze_contacts(res, {"HK", "FOSSA"}, 10.0);
  ASSERT_FALSE(outcomes.empty());
  const ContactStats stats = summarize_contacts(outcomes);
  // The reproduction's central claim: effective windows are much shorter
  // than theoretical ones.
  EXPECT_GT(stats.duration_shrink_fraction, 0.3);
  EXPECT_LT(stats.duration_shrink_fraction, 1.0);
  // And receptions cluster mid-window (paper Fig 9: 70.4% in 30-70%).
  const auto pos = beacon_positions_in_window(res, {"HK", "FOSSA"});
  if (pos.size() > 50) {
    EXPECT_GT(mid_window_fraction(pos), 0.4);
  }
}

TEST(ContactAnalysis, SummaryOfEmptyIsZeroed) {
  const ContactStats stats = summarize_contacts({});
  EXPECT_EQ(stats.contact_count, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_effective_duration_s, 0.0);
}

}  // namespace

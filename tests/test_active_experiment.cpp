// Active-experiment analytics (reliability, retx, latency, energy).
#include <gtest/gtest.h>

#include "core/active_experiment.h"
#include "energy/duty_cycle.h"

namespace {

using namespace sinet::core;
using sinet::trace::UplinkRecord;

UplinkRecord rec(double gen, bool delivered, int attempts,
                 int concurrency = 1) {
  UplinkRecord r;
  r.generated_unix_s = gen;
  r.delivered = delivered;
  r.dts_attempts = attempts;
  r.max_concurrent_tx = concurrency;
  if (delivered) {
    r.first_tx_unix_s = gen + 100.0;
    r.satellite_rx_unix_s = gen + 150.0;
    r.server_rx_unix_s = gen + 1000.0;
  }
  return r;
}

TEST(Reliability, TailExclusion) {
  std::vector<UplinkRecord> ups;
  ups.push_back(rec(0.0, true, 1));
  ups.push_back(rec(10.0, false, 1));
  ups.push_back(rec(95'000.0, false, 1));  // inside the excluded tail
  const auto s = summarize_reliability(ups, 100'000.0, 10'000.0);
  EXPECT_EQ(s.generated, 3u);
  EXPECT_EQ(s.eligible, 2u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_DOUBLE_EQ(s.reliability, 0.5);
}

TEST(Reliability, EmptyInput) {
  const auto s = summarize_reliability({}, 100.0);
  EXPECT_EQ(s.eligible, 0u);
  EXPECT_DOUBLE_EQ(s.reliability, 0.0);
}

TEST(Retx, CountsRetransmissionsOfDeliveredOnly) {
  std::vector<UplinkRecord> ups;
  ups.push_back(rec(0.0, true, 1));   // 0 retx
  ups.push_back(rec(0.0, true, 3));   // 2 retx
  ups.push_back(rec(0.0, false, 6));  // not delivered: excluded
  const auto s = summarize_retx(ups);
  EXPECT_EQ(s.retransmissions.size(), 2u);
  EXPECT_DOUBLE_EQ(s.zero_retx_fraction, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_attempts, 2.0);
}

TEST(Latency, SummaryFromRecords) {
  std::vector<UplinkRecord> ups;
  ups.push_back(rec(0.0, true, 1));  // e2e 1000 s
  ups.push_back(rec(0.0, false, 1));
  const auto s = summarize_latency(ups);
  EXPECT_NEAR(s.mean_min, 1000.0 / 60.0, 1e-9);
  EXPECT_NEAR(s.median_min, 1000.0 / 60.0, 1e-9);
  EXPECT_NEAR(s.mean_breakdown.wait_for_pass_s, 100.0, 1e-9);
  EXPECT_NEAR(s.mean_breakdown.dts_transfer_s, 50.0, 1e-9);
  EXPECT_NEAR(s.mean_breakdown.delivery_s, 850.0, 1e-9);
}

TEST(Concurrency, GroupsByPeakConcurrency) {
  std::vector<UplinkRecord> ups;
  ups.push_back(rec(0.0, true, 1, 1));
  ups.push_back(rec(0.0, true, 1, 2));
  ups.push_back(rec(0.0, false, 1, 2));
  ups.push_back(rec(0.0, false, 2, 3));
  UplinkRecord never_sent = rec(0.0, false, 0);
  never_sent.dts_attempts = 0;
  ups.push_back(never_sent);  // excluded: never on the air
  const auto groups = reliability_by_concurrency(ups, 1e9, 0.0);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_DOUBLE_EQ(groups.at(1).reliability, 1.0);
  EXPECT_DOUBLE_EQ(groups.at(2).reliability, 0.5);
  EXPECT_DOUBLE_EQ(groups.at(3).reliability, 0.0);
}

TEST(Energy, ComparisonUsesPaperProfiles) {
  const auto terr = sinet::energy::terrestrial_daily_duty();
  // A Tianqi node's day: the Rx radio idles through the constellation's
  // ~18.5 h of theoretical presence waiting for beacons.
  sinet::energy::ResidencyTracker sat;
  sat.record(sinet::energy::Mode::kTx, 48.0 * 1.7 * 0.37);
  sat.record(sinet::energy::Mode::kRx, 0.78 * 86400.0);
  sat.record(sinet::energy::Mode::kSleep, 86400.0 - 48.0 * 1.7 * 0.37 -
                                               0.78 * 86400.0);
  const auto cmp = compare_energy(terr, sat);
  EXPECT_GT(cmp.satellite_avg_power_mw, cmp.terrestrial_avg_power_mw);
  EXPECT_GT(cmp.terrestrial_lifetime_days, cmp.satellite_lifetime_days);
  EXPECT_GT(cmp.lifetime_ratio, 5.0);
  EXPECT_THROW(
      compare_energy(sinet::energy::ResidencyTracker{}, sat),
      std::invalid_argument);
}

TEST(Knobs, MakeActiveConfigAppliesOverrides) {
  ActiveExperimentKnobs knobs;
  knobs.duration_days = 3.0;
  knobs.max_retransmissions = 2;
  knobs.antenna = sinet::channel::AntennaType::kFiveEighthsWaveMonopole;
  knobs.payload_bytes = 60;
  const auto cfg = make_active_config(knobs);
  EXPECT_DOUBLE_EQ(cfg.duration_days, 3.0);
  ASSERT_EQ(cfg.nodes.size(), 3u);
  for (const auto& n : cfg.nodes) {
    EXPECT_EQ(n.max_retransmissions, 2);
    EXPECT_EQ(n.antenna,
              sinet::channel::AntennaType::kFiveEighthsWaveMonopole);
    EXPECT_EQ(n.report_payload_bytes, 60);
  }
}

TEST(Integration, RunActiveComparisonEndToEnd) {
  ActiveExperimentKnobs knobs;
  knobs.duration_days = 1.0;
  const auto cmp = run_active_comparison(knobs);
  EXPECT_FALSE(cmp.satellite.uplinks.empty());
  EXPECT_FALSE(cmp.terrestrial.uplinks.empty());
  // The paper's central comparison: satellite latency is orders of
  // magnitude above the terrestrial baseline.
  const auto sat_lat = summarize_latency(cmp.satellite);
  EXPECT_GT(sat_lat.mean_min * 60.0,
            cmp.terrestrial.mean_latency_s() * 10.0);
  // And terrestrial reliability is higher.
  const auto sat_rel =
      summarize_reliability(cmp.satellite.uplinks, cmp.run_end_unix_s,
                            4.0 * 3600.0);
  EXPECT_GE(cmp.terrestrial.delivered_fraction(), sat_rel.reliability);
}

}  // namespace

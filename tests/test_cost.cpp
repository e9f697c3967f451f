// Cost model tests: regenerates paper Table 2 and Sec 3.2 numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "cost/cost_model.h"

namespace {

using namespace sinet::cost;

TEST(Workload, ReportsPerDay) {
  Workload w;  // 20 B every 30 min
  EXPECT_DOUBLE_EQ(w.reports_per_day(), 48.0);
  w.report_interval_s = 0.0;
  EXPECT_THROW((void)w.reports_per_day(), std::invalid_argument);
}

TEST(SatellitePackets, SmallReportsAreOnePacket) {
  const Workload w;  // 20 bytes fits one 120-byte packet
  const SatellitePricing p;
  EXPECT_DOUBLE_EQ(satellite_packets_per_day(w, p), 48.0);
}

TEST(SatellitePackets, LargeReportsSplit) {
  Workload w;
  w.report_bytes = 250;  // needs 3 packets of 120 bytes
  const SatellitePricing p;
  EXPECT_DOUBLE_EQ(satellite_packets_per_day(w, p), 3.0 * 48.0);
  w.report_bytes = 0;
  EXPECT_THROW(satellite_packets_per_day(w, p), std::invalid_argument);
}

TEST(MonthlyCost, SatelliteMatchesPaper) {
  // Paper Sec 3.2: 48 packets/day -> 23.76 USD per sensor per month.
  const Workload w;
  const SatellitePricing p;
  EXPECT_NEAR(satellite_monthly_usd(w, p), 23.76, 1e-9);
}

TEST(MonthlyCost, TerrestrialMatchesPaper) {
  const TerrestrialPricing p;
  EXPECT_NEAR(terrestrial_monthly_usd(1, p), 4.9, 1e-9);
  EXPECT_NEAR(terrestrial_monthly_usd(3, p), 14.7, 1e-9);
  EXPECT_THROW(terrestrial_monthly_usd(-1, p), std::invalid_argument);
}

TEST(Construction, MatchesTable2) {
  Workload w;
  w.sensor_count = 3;
  const TerrestrialPricing tp;
  const SatellitePricing sp;
  // 3 nodes x $35 + 3 gateways x $219.
  EXPECT_NEAR(terrestrial_construction_usd(w, 3, tp), 3 * 35.0 + 3 * 219.0,
              1e-9);
  // 3 Tianqi nodes x $220, no infrastructure.
  EXPECT_NEAR(satellite_construction_usd(w, sp), 660.0, 1e-9);
}

TEST(Breakeven, SingleSensorWithGateway) {
  // One sensor: terrestrial CAPEX $35+$219 = $254 vs satellite $220;
  // OPEX gap 23.76 - 4.9 = 18.86/month -> breakeven ~1.8 months.
  Workload w;
  const TerrestrialPricing tp;
  const SatellitePricing sp;
  const double months = breakeven_months(w, 1, tp, sp);
  EXPECT_NEAR(months, (254.0 - 220.0) / (23.76 - 4.9), 1e-6);
}

TEST(Breakeven, SatelliteAlwaysCheaperWhenOpexLower) {
  Workload w;
  w.report_interval_s = 86400.0 * 30.0;  // one packet a month: ~0.02 USD
  const TerrestrialPricing tp;
  const SatellitePricing sp;
  EXPECT_TRUE(std::isinf(breakeven_months(w, 1, tp, sp)));
}

TEST(Breakeven, ZeroWhenSatelliteCapexAlreadyHigher) {
  Workload w;
  const TerrestrialPricing tp;
  const SatellitePricing sp;
  // No gateway: terrestrial CAPEX $35 < satellite $220, satellite OPEX
  // higher -> satellite is more expensive from day one.
  EXPECT_DOUBLE_EQ(breakeven_months(w, 0, tp, sp), 0.0);
}

TEST(Tco, ManySensorsFavorTerrestrialSooner) {
  Workload w1, w10;
  w1.sensor_count = 1;
  w10.sensor_count = 10;
  const TerrestrialPricing tp;
  const SatellitePricing sp;
  // Ten sensors share the same gateways, but satellite OPEX scales with
  // sensor count: breakeven comes sooner.
  const double b1 = breakeven_months(w1, 3, tp, sp);
  const double b10 = breakeven_months(w10, 3, tp, sp);
  EXPECT_LT(b10, b1);
}

}  // namespace

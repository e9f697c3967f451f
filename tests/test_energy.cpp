// Energy model: power profiles, residency accounting, battery, duty
// cycles (paper Figs 6, 10, 11).
#include <gtest/gtest.h>

#include "energy/battery.h"
#include "energy/duty_cycle.h"
#include "energy/power_model.h"

namespace {

using namespace sinet::energy;

TEST(PowerProfile, TerrestrialMatchesPaperFig10) {
  const PowerProfile p = terrestrial_node_profile();
  EXPECT_DOUBLE_EQ(p.power_mw(Mode::kTx), 1630.0);
  EXPECT_DOUBLE_EQ(p.power_mw(Mode::kRx), 265.0);
  EXPECT_DOUBLE_EQ(p.power_mw(Mode::kStandby), 146.0);
  EXPECT_DOUBLE_EQ(p.power_mw(Mode::kSleep), 19.1);
  EXPECT_TRUE(p.has_standby);
}

TEST(PowerProfile, SatelliteTxIs2point2xTerrestrial) {
  const PowerProfile sat = satellite_node_profile();
  const PowerProfile terr = terrestrial_node_profile();
  EXPECT_NEAR(sat.power_mw(Mode::kTx) / terr.power_mw(Mode::kTx), 2.2,
              1e-9);
  EXPECT_FALSE(sat.has_standby);
  EXPECT_THROW((void)sat.power_mw(Mode::kStandby), std::logic_error);
  // MCU stays on in sleep: higher floor than the terrestrial node.
  EXPECT_GT(sat.power_mw(Mode::kSleep), terr.power_mw(Mode::kSleep));
}

TEST(Residency, AccumulatesAndFractions) {
  ResidencyTracker t;
  t.record(Mode::kSleep, 900.0);
  t.record(Mode::kRx, 90.0);
  t.record(Mode::kTx, 10.0);
  t.record(Mode::kSleep, 0.0);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 1000.0);
  EXPECT_DOUBLE_EQ(t.time_fraction(Mode::kSleep), 0.9);
  EXPECT_DOUBLE_EQ(t.time_fraction(Mode::kTx), 0.01);
  EXPECT_THROW(t.record(Mode::kRx, -1.0), std::invalid_argument);
}

TEST(Residency, EnergyComputation) {
  const PowerProfile p = terrestrial_node_profile();
  ResidencyTracker t;
  t.record(Mode::kTx, 3600.0);  // one hour of Tx
  EXPECT_DOUBLE_EQ(t.energy_mwh(Mode::kTx, p), 1630.0);
  EXPECT_DOUBLE_EQ(t.total_energy_mwh(p), 1630.0);
  EXPECT_DOUBLE_EQ(t.energy_fraction(Mode::kTx, p), 1.0);
  EXPECT_DOUBLE_EQ(t.average_power_mw(p), 1630.0);
}

TEST(Residency, EmptyTrackerIsZero) {
  const ResidencyTracker t;
  const PowerProfile p = terrestrial_node_profile();
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(t.time_fraction(Mode::kRx), 0.0);
  EXPECT_DOUBLE_EQ(t.average_power_mw(p), 0.0);
}

TEST(Residency, StandbyOnStandbylessProfileThrows) {
  ResidencyTracker t;
  t.record(Mode::kStandby, 10.0);
  const PowerProfile sat = satellite_node_profile();
  EXPECT_THROW((void)t.energy_mwh(Mode::kStandby, sat), std::logic_error);
}

TEST(Battery, EnergyAndLifetime) {
  const Battery b{5000.0, 3.7};
  EXPECT_DOUBLE_EQ(b.energy_mwh(), 18500.0);
  // At 18.5 mW the battery lasts 1000 h = 41.67 days.
  EXPECT_NEAR(lifetime_days(b, 18.5), 1000.0 / 24.0, 1e-9);
  EXPECT_THROW(lifetime_days(b, 0.0), std::invalid_argument);
}

TEST(DutyCycle, TerrestrialSpendsMostTimeAsleep) {
  const ResidencyTracker t = terrestrial_daily_duty();
  EXPECT_NEAR(t.total_seconds(), 86400.0, 1e-6);
  // Paper Fig 11: ~95% of time in sleep+standby.
  const double low_power =
      t.time_fraction(Mode::kSleep) + t.time_fraction(Mode::kStandby);
  EXPECT_GT(low_power, 0.95);
}

TEST(DutyCycle, WorkloadDerivedTerrestrialIsSleepDominated) {
  // With the actual 48-reports/day workload, sleep energy dominates —
  // the honest model (see paper_fig11_terrestrial_duty for the figure).
  const ResidencyTracker t = terrestrial_daily_duty();
  const PowerProfile p = terrestrial_node_profile();
  const double radio = t.energy_fraction(Mode::kTx, p) +
                       t.energy_fraction(Mode::kRx, p);
  EXPECT_LT(radio, 0.2);
  EXPECT_GT(t.energy_fraction(Mode::kSleep, p), 0.5);
}

TEST(DutyCycle, PaperFig11ProfileReproducesBreakdown) {
  const ResidencyTracker t = paper_fig11_terrestrial_duty();
  const PowerProfile p = terrestrial_node_profile();
  // Fig 11: ~95% of time in sleep+standby, >70% of energy in Tx+Rx.
  const double low_power_time =
      t.time_fraction(Mode::kSleep) + t.time_fraction(Mode::kStandby);
  EXPECT_GT(low_power_time, 0.93);
  const double radio_energy = t.energy_fraction(Mode::kTx, p) +
                              t.energy_fraction(Mode::kRx, p);
  EXPECT_GT(radio_energy, 0.68);
}

TEST(DutyCycle, InvalidParamsThrow) {
  TerrestrialDutyParams tp;
  tp.report_interval_s = 0.0;
  EXPECT_THROW(terrestrial_daily_duty(tp), std::invalid_argument);
}

TEST(ModeNames, Distinct) {
  EXPECT_EQ(to_string(Mode::kSleep), "sleep");
  EXPECT_EQ(to_string(Mode::kStandby), "standby");
  EXPECT_EQ(to_string(Mode::kRx), "rx");
  EXPECT_EQ(to_string(Mode::kTx), "tx");
}

}  // namespace

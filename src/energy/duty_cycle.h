// Analytic duty-cycle builders for the energy comparison experiments.
//
// The protocol simulator (net/) tracks residencies exactly; these builders
// provide the closed-form daily duty profiles used by the Fig 6 / Fig 10 /
// Fig 11 benches, derived from the application workload (20-byte report
// every 30 minutes) and each system's operating discipline.
#pragma once

#include "energy/power_model.h"

namespace sinet::energy {

struct TerrestrialDutyParams {
  double report_interval_s = 1800.0;  ///< 20-byte report every 30 min
  double tx_time_per_report_s = 0.33; ///< SF10 ToA for ~20 B
  /// LoRaWAN class-A: two short Rx windows after each uplink.
  double rx_time_per_report_s = 0.4;
  /// Wake/measure/encode overhead spent in standby around each report.
  double standby_time_per_report_s = 2.0;
};

/// Residency of one day (86,400 s) of terrestrial LoRaWAN operation.
[[nodiscard]] ResidencyTracker terrestrial_daily_duty(
    const TerrestrialDutyParams& p = {});

/// Residency reproducing the *measured* terrestrial breakdown of paper
/// Fig 11 (95% of time in sleep+standby, yet >70% of energy in Tx+Rx).
/// Note: that energy split implies far more radio airtime than the
/// 48-reports/day application alone generates — the deployed RAK nodes
/// evidently carried additional radio activity (join traffic, MAC
/// commands, sensing). This profile is calibrated to the figure, while
/// terrestrial_daily_duty() stays workload-derived; EXPERIMENTS.md
/// discusses the difference.
[[nodiscard]] ResidencyTracker paper_fig11_terrestrial_duty();

}  // namespace sinet::energy

#include "energy/duty_cycle.h"

#include <stdexcept>

namespace sinet::energy {

namespace {
constexpr double kDayS = 86400.0;
}

ResidencyTracker terrestrial_daily_duty(const TerrestrialDutyParams& p) {
  if (p.report_interval_s <= 0.0)
    throw std::invalid_argument("terrestrial_daily_duty: bad interval");
  const double reports = kDayS / p.report_interval_s;
  ResidencyTracker t;
  const double tx = reports * p.tx_time_per_report_s;
  const double rx = reports * p.rx_time_per_report_s;
  const double standby = reports * p.standby_time_per_report_s;
  const double active = tx + rx + standby;
  if (active >= kDayS)
    throw std::invalid_argument(
        "terrestrial_daily_duty: active time exceeds a day");
  t.record(Mode::kTx, tx);
  t.record(Mode::kRx, rx);
  t.record(Mode::kStandby, standby);
  t.record(Mode::kSleep, kDayS - active);
  return t;
}

ResidencyTracker paper_fig11_terrestrial_duty() {
  // Calibrated to paper Fig 11: ~95% of wall time in sleep+standby while
  // Tx+Rx carry ~70% of the energy at the Fig 10 mode powers.
  ResidencyTracker t;
  t.record(Mode::kTx, 2300.0);
  t.record(Mode::kRx, 2200.0);
  t.record(Mode::kStandby, 1500.0);
  t.record(Mode::kSleep, kDayS - 2300.0 - 2200.0 - 1500.0);
  return t;
}

}  // namespace sinet::energy

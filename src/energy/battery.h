// Battery capacity and lifetime estimation (paper Fig 6d).
#pragma once

namespace sinet::energy {

struct Battery {
  double capacity_mah = 5000.0;  ///< paper's "5,000" battery
  double nominal_voltage_v = 3.7;

  [[nodiscard]] double energy_mwh() const noexcept {
    return capacity_mah * nominal_voltage_v;
  }
};

/// Days a battery lasts at the given average power draw.
/// Throws std::invalid_argument for nonpositive power.
[[nodiscard]] double lifetime_days(const Battery& battery,
                                   double average_power_mw);

}  // namespace sinet::energy

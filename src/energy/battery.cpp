#include "energy/battery.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::energy {

double lifetime_days(const Battery& battery, double average_power_mw) {
  if (average_power_mw <= 0.0)
    throw std::invalid_argument("lifetime_days: nonpositive power");
  const double hours = battery.energy_mwh() / average_power_mw;
  return hours / 24.0;
}

}  // namespace sinet::energy

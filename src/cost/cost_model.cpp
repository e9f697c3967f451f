#include "cost/cost_model.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sinet::cost {

double Workload::reports_per_day() const {
  if (report_interval_s <= 0.0)
    throw std::invalid_argument("Workload: nonpositive report interval");
  return 86400.0 / report_interval_s;
}

double satellite_packets_per_day(const Workload& w,
                                 const SatellitePricing& p) {
  if (p.max_payload_bytes_per_packet <= 0)
    throw std::invalid_argument("SatellitePricing: bad max payload");
  if (w.report_bytes <= 0)
    throw std::invalid_argument("Workload: nonpositive report size");
  const double packets_per_report = std::ceil(
      static_cast<double>(w.report_bytes) /
      static_cast<double>(p.max_payload_bytes_per_packet));
  return w.reports_per_day() * packets_per_report;
}

double terrestrial_construction_usd(const Workload& w, int gateway_count,
                                    const TerrestrialPricing& p) {
  if (gateway_count < 0)
    throw std::invalid_argument("negative gateway count");
  return w.sensor_count * p.end_node_usd + gateway_count * p.gateway_usd;
}

double satellite_construction_usd(const Workload& w,
                                  const SatellitePricing& p) {
  return w.sensor_count * p.node_usd;
}

double terrestrial_monthly_usd(int gateway_count,
                               const TerrestrialPricing& p) {
  if (gateway_count < 0)
    throw std::invalid_argument("negative gateway count");
  return gateway_count * p.lte_plan_usd_per_month;
}

double satellite_monthly_usd(const Workload& w, const SatellitePricing& p) {
  const double packets_per_month =
      satellite_packets_per_day(w, p) * 30.0 * w.sensor_count;
  return packets_per_month / 1000.0 * p.usd_per_thousand_packets;
}

double breakeven_months(const Workload& w, int gateway_count,
                        const TerrestrialPricing& tp,
                        const SatellitePricing& sp) {
  const double capex_gap = terrestrial_construction_usd(w, gateway_count, tp) -
                           satellite_construction_usd(w, sp);
  const double opex_gap =
      satellite_monthly_usd(w, sp) - terrestrial_monthly_usd(gateway_count, tp);
  if (opex_gap <= 0.0)
    return std::numeric_limits<double>::infinity();  // satellite never loses
  if (capex_gap <= 0.0) return 0.0;  // satellite more expensive from day one
  return capex_gap / opex_gap;
}

}  // namespace sinet::cost

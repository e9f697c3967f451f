// Expenditure model: construction (CAPEX) and operational (OPEX) costs of
// terrestrial vs. satellite IoT deployments (paper Table 2, Sec 3.2).
#pragma once

#include <string>

namespace sinet::cost {

/// Published prices (USD) used by the paper.
struct TerrestrialPricing {
  double end_node_usd = 35.0;
  double gateway_usd = 219.0;
  double lte_plan_usd_per_month = 4.9;  ///< per gateway backhaul plan
};

struct SatellitePricing {
  double node_usd = 220.0;
  double usd_per_thousand_packets = 16.5;
  int max_payload_bytes_per_packet = 120;
};

/// Application traffic description.
struct Workload {
  int report_bytes = 20;
  double report_interval_s = 1800.0;  ///< 30 minutes
  int sensor_count = 1;

  /// Reports generated per sensor per day.
  [[nodiscard]] double reports_per_day() const;
};

/// Billable satellite packets per sensor per day (reports are split into
/// ceil(bytes / max_payload) packets).
[[nodiscard]] double satellite_packets_per_day(const Workload& w,
                                               const SatellitePricing& p);

/// One-time construction cost of a terrestrial deployment.
[[nodiscard]] double terrestrial_construction_usd(const Workload& w,
                                                  int gateway_count,
                                                  const TerrestrialPricing& p);

/// One-time construction cost of a satellite deployment (nodes only — the
/// space segment is the operator's).
[[nodiscard]] double satellite_construction_usd(const Workload& w,
                                                const SatellitePricing& p);

/// Monthly operational cost (30-day month) of each paradigm.
[[nodiscard]] double terrestrial_monthly_usd(int gateway_count,
                                             const TerrestrialPricing& p);
[[nodiscard]] double satellite_monthly_usd(const Workload& w,
                                           const SatellitePricing& p);

/// Months after which the satellite deployment's lower CAPEX is overtaken
/// by its higher OPEX (break-even vs. terrestrial); returns +inf if the
/// satellite option never becomes more expensive, 0 if it always is.
[[nodiscard]] double breakeven_months(const Workload& w, int gateway_count,
                                      const TerrestrialPricing& tp,
                                      const SatellitePricing& sp);

}  // namespace sinet::cost

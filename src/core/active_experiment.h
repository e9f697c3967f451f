// Active-measurement experiment: the Tianqi agriculture deployment
// (paper Sec 3.2, Figs 5, 6, 12) and its terrestrial LoRaWAN baseline,
// with the summary statistics the paper reports.
#pragma once

#include <map>
#include <vector>

#include "channel/weather.h"
#include "energy/battery.h"
#include "energy/power_model.h"
#include "net/dts_network.h"
#include "net/lorawan.h"
#include "stats/cdf.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::core {

/// Reliability over reports that had a fair chance of delivery: reports
/// generated within `tail_exclusion_s` of the end of the run are still in
/// flight when the simulation stops and are excluded (the paper's month of
/// operation has no such truncation).
struct ReliabilitySummary {
  std::size_t generated = 0;
  std::size_t eligible = 0;
  std::size_t delivered = 0;
  double reliability = 0.0;
};
[[nodiscard]] ReliabilitySummary summarize_reliability(
    const std::vector<trace::UplinkRecord>& uplinks, double run_end_unix_s,
    double tail_exclusion_s = 6.0 * 3600.0);

/// DtS retransmission statistics (paper Fig 5b): attempts per delivered
/// packet; retransmissions = attempts - 1.
struct RetxSummary {
  stats::EmpiricalCdf retransmissions;
  double zero_retx_fraction = 0.0;
  double mean_attempts = 0.0;
};
[[nodiscard]] RetxSummary summarize_retx(
    const std::vector<trace::UplinkRecord>& uplinks);

/// Mean latency decomposition (Fig 5d), seconds: {wait for pass, DtS
/// transfer, delivery via GS+backhaul}.
struct LatencyBreakdown {
  double wait_for_pass_s = 0.0;
  double dts_transfer_s = 0.0;
  double delivery_s = 0.0;
};

/// End-to-end latency statistics in minutes (paper Fig 5c/5d).
struct LatencySummary {
  double mean_min = 0.0;
  double median_min = 0.0;
  double p90_min = 0.0;
  LatencyBreakdown mean_breakdown;  ///< seconds
};
[[nodiscard]] LatencySummary summarize_latency(
    const net::DtsNetworkResult& result);
[[nodiscard]] LatencySummary summarize_latency(
    const std::vector<trace::UplinkRecord>& uplinks);

/// Reliability grouped by the peak number of simultaneous uplink
/// transmissions a packet experienced (paper Fig 12b).
[[nodiscard]] std::map<int, ReliabilitySummary> reliability_by_concurrency(
    const std::vector<trace::UplinkRecord>& uplinks, double run_end_unix_s,
    double tail_exclusion_s = 6.0 * 3600.0);

/// Energy comparison between the two systems (paper Fig 6d):
/// battery lifetimes from simulated residencies and the measured power
/// profiles.
struct EnergyComparison {
  double terrestrial_avg_power_mw = 0.0;
  double satellite_avg_power_mw = 0.0;
  double terrestrial_lifetime_days = 0.0;
  double satellite_lifetime_days = 0.0;
  double lifetime_ratio = 0.0;  ///< terrestrial / satellite (paper ~15x)
};
[[nodiscard]] EnergyComparison compare_energy(
    const energy::ResidencyTracker& terrestrial_residency,
    const energy::ResidencyTracker& satellite_residency,
    const energy::Battery& battery = {});

/// Build the paper's active-experiment configuration with common knob
/// overrides (ARQ depth, antenna, payload, weather mix).
struct ActiveExperimentKnobs {
  double duration_days = 10.0;
  int max_retransmissions = 5;
  channel::AntennaType antenna =
      channel::AntennaType::kQuarterWaveMonopole;
  int payload_bytes = 20;
  /// Weather at the farm for each day, cycled; empty = sunny.
  std::vector<channel::Weather> daily_weather;
  std::uint64_t seed = 42;
  /// Optional run-metrics sink, forwarded to DtsNetworkConfig::metrics;
  /// null disables instrumentation. Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};
[[nodiscard]] net::DtsNetworkConfig make_active_config(
    const ActiveExperimentKnobs& knobs);

/// Run the satellite side and the terrestrial baseline with matched
/// workloads; convenience for the Fig 5/6 benches.
struct ActiveComparison {
  net::DtsNetworkResult satellite;
  net::LorawanResult terrestrial;
  double run_end_unix_s = 0.0;
};
[[nodiscard]] ActiveComparison run_active_comparison(
    const ActiveExperimentKnobs& knobs);

}  // namespace sinet::core

// Passive measurement campaign: the customized-TinyGS analogue.
//
// For every (site, constellation, satellite) triple it predicts contact
// windows, drives the beacon/channel/demodulator models along each pass,
// and logs one BeaconRecord per successfully received beacon — the exact
// dataset schema the paper's 27 stations produced (121,744 traces).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "net/beacon.h"
#include "orbit/constellation.h"
#include "orbit/passes.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "trace/packet_trace.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::core {

struct PassiveCampaignConfig {
  orbit::JulianDate start_jd = 0.0;
  double duration_days = 7.0;
  std::vector<MeasurementSite> sites;
  std::vector<orbit::ConstellationSpec> constellations;
  net::BeaconConfig beacon;
  /// Satellite-side radio; rx antenna is the TinyGS station whip.
  phy::LinkConfig beacon_link;
  phy::ErrorModelConfig error_model;
  double pass_scan_step_s = 60.0;
  /// Windows are assigned to each site's finite stations by the
  /// customized scheduler (paper Sec 2.2), which leaves this gap between
  /// two windows on one station.
  double station_retune_gap_s = 15.0;
  /// Worker threads: 0 = all hardware threads (the shared pool), 1 =
  /// everything serial on the calling thread, N = N workers. Window
  /// prediction fans out over (satellite, site) pairs and the
  /// beacon/channel simulation over sites. Each site draws from its own
  /// stream in a fixed order and the sites merge in order, so the result
  /// is bit-identical at any thread count.
  unsigned threads = 0;
  std::uint64_t seed = 1;
  /// Optional run-metrics sink. When non-null the campaign records
  /// pass-prediction ("orbit.pass_cache.*", "orbit.ephemeris.*"),
  /// thread-pool ("sim.thread_pool.*") and campaign ("core.passive.*")
  /// metrics into it; null (the default) disables instrumentation. Must
  /// outlive run_passive_campaign().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Default configuration: all 8 sites, all 4 constellations, epoch
/// 2025-03-01, SF10/125 kHz beacons every 10 s.
[[nodiscard]] PassiveCampaignConfig default_campaign(
    double duration_days = 7.0);

/// Identifies one (site, constellation) analysis cell.
using CellKey = std::pair<std::string, std::string>;

/// Theoretical windows of one satellite over one site.
struct SatelliteWindows {
  std::string satellite;
  std::vector<orbit::ContactWindow> windows;
};

struct PassiveCampaignResult {
  trace::BeaconTraceSet traces;
  /// Per (site code, constellation): per-satellite theoretical windows.
  std::map<CellKey, std::vector<SatelliteWindows>> theoretical;
  std::uint64_t beacons_transmitted = 0;
  std::uint64_t beacons_received = 0;
  /// Windows requested vs actually observed per site (scheduler effect).
  std::map<std::string, std::pair<std::size_t, std::size_t>>
      windows_requested_observed;
};

/// Run the campaign. Deterministic given (config, seed).
[[nodiscard]] PassiveCampaignResult run_passive_campaign(
    const PassiveCampaignConfig& cfg);

}  // namespace sinet::core

// Terrestrial LoRaWAN baseline (paper Sec 3.2).
//
// Three RAKwireless gateways with LTE backhaul serve the same sensors the
// Tianqi nodes serve. Gateways are always-on and a few km away at most,
// so the uplink margin is tens of dB: reliability is near-perfect and
// end-to-end latency is on-air time plus LTE forwarding.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/power_model.h"
#include "net/backhaul.h"
#include "phy/error_model.h"
#include "phy/lora.h"
#include "trace/packet_trace.h"

namespace sinet::net {

struct LorawanConfig {
  int node_count = 3;
  int report_payload_bytes = 20;
  double report_interval_s = 1800.0;
  double duration_days = 30.0;
  int max_retransmissions = 0;
  double gateway_distance_km = 2.0;   ///< node -> nearest gateway
  double node_tx_power_dbm = 14.0;    ///< terrestrial LoRaWAN EIRP class
  phy::LoraParams lora;               ///< defaults: SF10 / 125 kHz
  phy::ErrorModelConfig error_model;
  BackhaulConfig backhaul = lte_backhaul();
  std::uint64_t seed = 7;
};

struct LorawanResult {
  std::vector<trace::UplinkRecord> uplinks;
  std::vector<energy::ResidencyTracker> node_residency;  ///< one per node
  double uplink_per = 0.0;  ///< single-attempt packet error rate used

  [[nodiscard]] double delivered_fraction() const;
  [[nodiscard]] double mean_latency_s() const;
};

/// Single-attempt packet error rate of the terrestrial uplink, from the
/// ground-range link budget (FSPL at gateway_distance_km + noise floor).
[[nodiscard]] double terrestrial_uplink_per(const LorawanConfig& cfg);

/// Run the baseline: generates every report, draws per-attempt outcomes
/// and LTE delivery delays, and accounts node energy residency.
[[nodiscard]] LorawanResult run_lorawan(const LorawanConfig& cfg);

}  // namespace sinet::net

#include "net/dts_network.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace sinet::net {

double DtsAggregates::delivered_fraction() const {
  if (reports_generated == 0) return 0.0;
  return static_cast<double>(reports_delivered) /
         static_cast<double>(reports_generated);
}

double DtsAggregates::eligible_delivered_fraction() const {
  if (eligible_generated == 0) return 0.0;
  return static_cast<double>(eligible_delivered) /
         static_cast<double>(eligible_generated);
}

double DtsAggregates::mean_end_to_end_s() const {
  if (reports_delivered == 0) return 0.0;
  return sum_end_to_end_s / static_cast<double>(reports_delivered);
}

double DtsAggregates::mean_wait_s() const {
  if (wait_samples == 0) return 0.0;
  return sum_wait_s / static_cast<double>(wait_samples);
}

void DtsAggregates::merge_from(const DtsAggregates& other) {
  reports_generated += other.reports_generated;
  reports_delivered += other.reports_delivered;
  eligible_generated += other.eligible_generated;
  eligible_delivered += other.eligible_delivered;
  local_buffer_drops += other.local_buffer_drops;
  packets_abandoned += other.packets_abandoned;
  sum_end_to_end_s += other.sum_end_to_end_s;
  sum_wait_s += other.sum_wait_s;
  wait_samples += other.wait_samples;
  sum_dts_transfer_s += other.sum_dts_transfer_s;
  sum_delivery_s += other.sum_delivery_s;
  breakdown_samples += other.breakdown_samples;
  latency_s.merge(other.latency_s);
  wait_s.merge(other.wait_s);
  attempts.merge(other.attempts);
  for (int m = 0; m < energy::kModeCount; ++m)
    fleet_residency.record(
        static_cast<energy::Mode>(m),
        other.fleet_residency.seconds_in(static_cast<energy::Mode>(m)));
}

double DtsNetworkResult::delivered_fraction() const {
  return agg.delivered_fraction();
}

double DtsNetworkResult::mean_end_to_end_s() const {
  return agg.mean_end_to_end_s();
}

DtsNetworkConfig tianqi_agriculture_config(orbit::JulianDate start_jd,
                                           double duration_days) {
  DtsNetworkConfig cfg;
  cfg.start_jd = start_jd;
  cfg.duration_days = duration_days;
  cfg.constellation = orbit::paper_constellation("Tianqi");

  // Tianqi's operational beacon cadence is slower than the TinyGS-visible
  // 10 s telemetry beacons; nodes get a transmit opportunity roughly
  // twice a minute.
  cfg.beacon.period_s = 30.0;
  cfg.beacon.payload_bytes = 24;

  // Satellite -> ground (beacons, ACKs). Same calibrated budget as the
  // passive campaign (see core/passive_campaign.cpp); the farm site is
  // rural, so man-made noise is a little lower than the city stations.
  cfg.downlink.tx_power_dbm = 18.5;
  cfg.downlink.external_noise_db = 4.0;  // rural farm: quieter than cities
  // 2 dB hardware loss + 2 dB coffee-canopy obstruction at the node.
  cfg.downlink.implementation_loss_db = 4.0;
  cfg.downlink.fading.shadowing_sigma_db = 3.0;
  cfg.downlink.tx_antenna = channel::AntennaType::kDipole;
  cfg.downlink.rx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.downlink.lora = phy::default_dts_params();

  // Node -> satellite (data uplink): the Tianqi node transmits at full
  // LoRa power and the space-facing satellite receiver sees little
  // man-made noise, so the uplink is stronger than the beacon downlink —
  // which is why data delivery succeeds once a beacon decodes (paper
  // Appendix F).
  cfg.uplink.tx_power_dbm = 22.0;
  cfg.uplink.external_noise_db = 2.0;   // space-facing receiver
  cfg.uplink.rx_noise_figure_db = 2.0;  // gateway LNA
  // Node antennas are mounted above the coffee shrubs: less obstruction
  // on the uplink than on the node's own reception.
  cfg.uplink.implementation_loss_db = 3.0;
  cfg.uplink.fading.shadowing_sigma_db = 3.0;
  cfg.uplink.tx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.uplink.rx_antenna = channel::AntennaType::kSatelliteTurnstile;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.lora = phy::default_dts_params();

  // Three nodes at a coffee plantation in Yunnan (paper Appendix B).
  const orbit::Geodetic farm{22.78, 100.98, 1.3};
  for (int i = 0; i < 3; ++i) {
    IotNodeConfig nc;
    nc.name = "TQ-node-" + std::to_string(i + 1);
    nc.location = farm;
    nc.report_payload_bytes = 20;
    nc.report_interval_s = 1800.0;
    nc.max_retransmissions = 5;
    cfg.nodes.push_back(nc);
  }

  cfg.ground_stations = tianqi_ground_stations();
  cfg.delivery_backhaul = tianqi_delivery_backhaul();
  return cfg;
}

std::vector<double> gs_flush_times(double aos_s, double los_s) {
  if (los_s < aos_s) return {};
  const double duration = los_s - aos_s;
  // A nominal contact drains twice: 20 s after rise (link acquisition
  // time) and 5 s before set. A window too short for both gets a single
  // midpoint flush; either way every flush lands inside [aos, los].
  if (duration < 25.0) return {aos_s + 0.5 * duration};
  return {aos_s + 20.0, los_s - 5.0};
}

DtsNetworkConfig scale_fleet_config(std::size_t node_count,
                                    std::size_t satellite_count,
                                    std::size_t site_count,
                                    orbit::JulianDate start_jd,
                                    double duration_days) {
  if (node_count == 0 || satellite_count == 0 || site_count == 0)
    throw std::invalid_argument(
        "scale_fleet_config: zero nodes/satellites/sites");
  // Start from the paper-calibrated link budgets and ground segment.
  DtsNetworkConfig cfg = tianqi_agriculture_config(start_jd, duration_days);
  cfg.nodes.clear();

  // Synthetic Tianqi-like shell scaled to the requested count.
  orbit::ConstellationSpec spec;
  spec.name = "Mega" + std::to_string(satellite_count);
  spec.region = "Global";
  spec.dts_frequency_hz = cfg.constellation.dts_frequency_hz;
  spec.beacon_sf = cfg.constellation.beacon_sf;
  spec.beacon_eirp_dbm = cfg.constellation.beacon_eirp_dbm;
  spec.groups = {{static_cast<int>(satellite_count), 540.0, 560.0, 53.0}};
  cfg.constellation = spec;
  cfg.downlink.carrier_hz = spec.dts_frequency_hz;
  cfg.uplink.carrier_hz = spec.dts_frequency_hz;

  // Equal-area spiral of sites between +-55 deg latitude (inside the
  // 53 deg shell's coverage), golden-angle longitudes so sites do not
  // cluster along a meridian.
  cfg.fleet.count = node_count;
  cfg.fleet.sites.reserve(site_count);
  constexpr double kGoldenAngleDeg = 137.50776405003785;
  constexpr double kPi = 3.14159265358979323846;
  const double sin_band = std::sin(55.0 * kPi / 180.0);
  for (std::size_t i = 0; i < site_count; ++i) {
    const double u =
        2.0 * (static_cast<double>(i) + 0.5) / static_cast<double>(site_count) -
        1.0;
    const double lat = std::asin(u * sin_band) * 180.0 / kPi;
    const double lon =
        std::fmod(static_cast<double>(i) * kGoldenAngleDeg, 360.0) - 180.0;
    cfg.fleet.sites.push_back(orbit::Geodetic{lat, lon, 0.3});
  }
  cfg.fleet.prototype.name = "scale";
  cfg.fleet.prototype.report_payload_bytes = 20;
  cfg.fleet.prototype.report_interval_s = 1800.0;
  cfg.fleet.prototype.max_retransmissions = 5;
  cfg.fleet.prototype.buffer_capacity = 512;

  // Footprint-wide coordination: mega-fleet ALOHA would collapse the MAC
  // (the very failure mode the paper's Sec 3.1 warns about), so the
  // scale scenario flies the CosMAC-style scheduled uplink.
  cfg.uplink_access = UplinkAccess::kScheduled;
  cfg.satellite_buffer_capacity = 65536;
  return cfg;
}

}  // namespace sinet::net

#include "core/active_experiment.h"

#include <algorithm>
#include <stdexcept>

#include "core/scenario.h"

namespace sinet::core {

ReliabilitySummary summarize_reliability(
    const std::vector<trace::UplinkRecord>& uplinks, double run_end_unix_s,
    double tail_exclusion_s) {
  ReliabilitySummary s;
  s.generated = uplinks.size();
  for (const trace::UplinkRecord& u : uplinks) {
    if (u.generated_unix_s > run_end_unix_s - tail_exclusion_s) continue;
    ++s.eligible;
    if (u.delivered) ++s.delivered;
  }
  s.reliability = s.eligible > 0 ? static_cast<double>(s.delivered) /
                                       static_cast<double>(s.eligible)
                                 : 0.0;
  return s;
}

RetxSummary summarize_retx(const std::vector<trace::UplinkRecord>& uplinks) {
  RetxSummary s;
  double attempts_sum = 0.0;
  std::size_t n = 0;
  std::size_t zero = 0;
  for (const trace::UplinkRecord& u : uplinks) {
    if (!u.delivered || u.dts_attempts <= 0) continue;
    const int retx = u.dts_attempts - 1;
    s.retransmissions.add(static_cast<double>(retx));
    attempts_sum += u.dts_attempts;
    if (retx == 0) ++zero;
    ++n;
  }
  if (n > 0) {
    s.zero_retx_fraction = static_cast<double>(zero) / static_cast<double>(n);
    s.mean_attempts = attempts_sum / static_cast<double>(n);
  }
  return s;
}

LatencySummary summarize_latency(
    const std::vector<trace::UplinkRecord>& uplinks) {
  LatencySummary s;
  stats::EmpiricalCdf e2e;
  LatencyBreakdown sum;
  std::size_t n_breakdown = 0;
  for (const trace::UplinkRecord& u : uplinks) {
    if (!u.delivered) continue;
    e2e.add(u.end_to_end_s() / 60.0);
    if (u.first_tx_unix_s >= 0.0 && u.satellite_rx_unix_s >= 0.0) {
      sum.wait_for_pass_s += u.wait_for_pass_s();
      sum.dts_transfer_s += u.dts_transfer_s();
      sum.delivery_s += u.delivery_s();
      ++n_breakdown;
    }
  }
  if (!e2e.empty()) {
    double total = 0.0;
    for (const double v : e2e.sorted_samples()) total += v;
    s.mean_min = total / static_cast<double>(e2e.size());
    s.median_min = e2e.median();
    s.p90_min = e2e.quantile(0.9);
  }
  if (n_breakdown > 0) {
    const auto dn = static_cast<double>(n_breakdown);
    s.mean_breakdown.wait_for_pass_s = sum.wait_for_pass_s / dn;
    s.mean_breakdown.dts_transfer_s = sum.dts_transfer_s / dn;
    s.mean_breakdown.delivery_s = sum.delivery_s / dn;
  }
  return s;
}

LatencySummary summarize_latency(const net::DtsNetworkResult& result) {
  return summarize_latency(result.uplinks);
}

std::map<int, ReliabilitySummary> reliability_by_concurrency(
    const std::vector<trace::UplinkRecord>& uplinks, double run_end_unix_s,
    double tail_exclusion_s) {
  std::map<int, std::vector<trace::UplinkRecord>> groups;
  for (const trace::UplinkRecord& u : uplinks) {
    if (u.dts_attempts <= 0) continue;  // never got on the air
    groups[std::max(u.max_concurrent_tx, 1)].push_back(u);
  }
  std::map<int, ReliabilitySummary> out;
  for (const auto& [level, records] : groups)
    out.emplace(level, summarize_reliability(records, run_end_unix_s,
                                             tail_exclusion_s));
  return out;
}

EnergyComparison compare_energy(
    const energy::ResidencyTracker& terrestrial_residency,
    const energy::ResidencyTracker& satellite_residency,
    const energy::Battery& battery) {
  EnergyComparison c;
  const energy::PowerProfile terr = energy::terrestrial_node_profile();
  const energy::PowerProfile sat = energy::satellite_node_profile();
  c.terrestrial_avg_power_mw = terrestrial_residency.average_power_mw(terr);
  c.satellite_avg_power_mw = satellite_residency.average_power_mw(sat);
  if (c.terrestrial_avg_power_mw <= 0.0 || c.satellite_avg_power_mw <= 0.0)
    throw std::invalid_argument("compare_energy: empty residency");
  c.terrestrial_lifetime_days =
      energy::lifetime_days(battery, c.terrestrial_avg_power_mw);
  c.satellite_lifetime_days =
      energy::lifetime_days(battery, c.satellite_avg_power_mw);
  c.lifetime_ratio = c.terrestrial_lifetime_days / c.satellite_lifetime_days;
  return c;
}

net::DtsNetworkConfig make_active_config(const ActiveExperimentKnobs& knobs) {
  net::DtsNetworkConfig cfg = net::tianqi_agriculture_config(
      campaign_epoch_jd(), knobs.duration_days);
  cfg.seed = knobs.seed;
  cfg.daily_weather = knobs.daily_weather;
  cfg.metrics = knobs.metrics;
  net::IotNodeConfig& node = cfg.fleet.prototype;
  node.max_retransmissions = knobs.max_retransmissions;
  node.antenna = knobs.antenna;
  node.report_payload_bytes = knobs.payload_bytes;
  return cfg;
}

ActiveComparison run_active_comparison(const ActiveExperimentKnobs& knobs) {
  ActiveComparison out;
  const net::DtsNetworkConfig cfg = make_active_config(knobs);
  out.satellite = net::run_dts_network(cfg);
  out.run_end_unix_s =
      orbit::julian_to_unix(cfg.start_jd) + cfg.duration_days * 86400.0;

  net::LorawanConfig terr;
  terr.node_count = static_cast<int>(cfg.fleet.count);
  terr.report_payload_bytes = knobs.payload_bytes;
  terr.report_interval_s = cfg.fleet.prototype.report_interval_s;
  terr.duration_days = knobs.duration_days;
  terr.max_retransmissions = knobs.max_retransmissions;
  terr.seed = knobs.seed + 1;
  out.terrestrial = net::run_lorawan(terr);
  return out;
}

}  // namespace sinet::core

// Farm monitoring: should a remote deployment use satellite IoT or
// terrestrial LoRaWAN?
//
//   $ ./farm_monitoring [days]
//
// Recreates the paper's agriculture scenario end to end: three sensor
// nodes at a Yunnan coffee plantation reporting 20 bytes every 30
// minutes, served either by the Tianqi constellation (simulated DtS
// pipeline) or by three LoRaWAN gateways with LTE backhaul — then prints
// the reliability / latency / energy / cost decision table.
#include <cstdio>
#include <exception>

#include "args.h"
#include "core/active_experiment.h"
#include "core/report.h"
#include "cost/cost_model.h"
#include "energy/duty_cycle.h"
#include "trace/csv.h"

#include <fstream>

using namespace sinet;
using namespace sinet::core;

int main(int argc, char** argv) try {
  const double days =
      argc >= 2 ? examples::parse_double_arg(argv[1], "days") : 7.0;
  std::printf("Simulating %.0f days of the coffee-plantation deployment...\n",
              days);

  ActiveExperimentKnobs knobs;
  knobs.duration_days = days;
  knobs.max_retransmissions = 5;
  const ActiveComparison cmp = run_active_comparison(knobs);

  // --- Reliability & latency ---
  const auto sat_rel =
      summarize_reliability(cmp.satellite.uplinks, cmp.run_end_unix_s);
  const auto sat_lat = summarize_latency(cmp.satellite);
  const double terr_lat_min = cmp.terrestrial.mean_latency_s() / 60.0;

  // --- Energy ---
  const auto energy_cmp = compare_energy(
      energy::terrestrial_daily_duty(), cmp.satellite.node_residency.front());

  // --- Cost (per sensor, 3 gateways for the terrestrial option) ---
  cost::Workload w;
  w.sensor_count = 3;
  const cost::TerrestrialPricing tp;
  const cost::SatellitePricing sp;

  Table t({"Metric", "Terrestrial LoRaWAN", "Tianqi satellite IoT"});
  t.add_row({"reliability",
             fmt_pct(cmp.terrestrial.delivered_fraction()),
             fmt_pct(sat_rel.reliability)});
  t.add_row({"mean latency", fmt(terr_lat_min, 2) + " min",
             fmt(sat_lat.mean_min, 1) + " min"});
  t.add_row({"battery lifetime",
             fmt(energy_cmp.terrestrial_lifetime_days, 0) + " days",
             fmt(energy_cmp.satellite_lifetime_days, 0) + " days"});
  t.add_row({"construction cost",
             "$" + fmt(cost::terrestrial_construction_usd(w, 3, tp), 0),
             "$" + fmt(cost::satellite_construction_usd(w, sp), 0)});
  t.add_row({"monthly cost",
             "$" + fmt(cost::terrestrial_monthly_usd(3, tp), 1),
             "$" + fmt(cost::satellite_monthly_usd(w, sp) , 2)});
  std::printf("\n%s", t.render().c_str());

  const double breakeven = cost::breakeven_months(w, 3, tp, sp);
  std::printf(
      "\nDecision guide: satellite saves CAPEX for %.1f months, then the "
      "per-packet billing overtakes the LTE plan.\n",
      breakeven);
  std::printf(
      "If the site has ANY terrestrial backhaul, LoRaWAN wins on every "
      "axis; satellite IoT is for sites with none (paper Appendix F).\n");

  // --- Buffer sizing from the observed delivery gaps ---
  double worst_gap_s = 0.0;
  double prev_delivery = -1.0;
  std::vector<double> deliveries;
  for (const auto& u : cmp.satellite.uplinks)
    if (u.delivered) deliveries.push_back(u.server_rx_unix_s);
  std::sort(deliveries.begin(), deliveries.end());
  for (const double d : deliveries) {
    if (prev_delivery >= 0.0)
      worst_gap_s = std::max(worst_gap_s, d - prev_delivery);
    prev_delivery = d;
  }
  std::printf(
      "\nStore-and-forward sizing: worst delivery gap %.0f min -> buffer "
      ">= %.0f reports per node.\n",
      worst_gap_s / 60.0, std::ceil(worst_gap_s / 1800.0));

  // --- Export the trace for offline analysis ---
  std::ofstream csv("farm_uplinks.csv");
  trace::write_uplink_csv(csv, cmp.satellite.uplinks);
  std::printf("Wrote %zu uplink records to farm_uplinks.csv\n",
              cmp.satellite.uplinks.size());
  return 0;
} catch (const std::exception& e) {
  return examples::report_error(e, "farm_monitoring [days]");
}

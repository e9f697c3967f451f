// Ground-station survey: run a virtual TinyGS station anywhere on Earth.
//
//   $ ./ground_station_survey [site-code|lat lon] [days]
//
// Deploys a virtual passive measurement station (the paper's $30 TinyGS
// build) at one of the study's cities — or any coordinate — listens to
// all four constellations for a few days, and prints the station report:
// traces per constellation, RSSI/SNR distributions, contact statistics,
// and a CSV export compatible with the paper's dataset schema.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/contact_analysis.h"
#include "core/passive_campaign.h"
#include "core/report.h"
#include "stats/cdf.h"
#include "trace/csv.h"

using namespace sinet;
using namespace sinet::core;

int main(int argc, char** argv) {
  MeasurementSite site = paper_site("HK");
  double days = 2.0;
  if (argc == 2) {
    site = paper_site(argv[1]);
  } else if (argc >= 3) {
    site.code = "custom";
    site.city = "Custom site";
    site.location = {std::atof(argv[1]), std::atof(argv[2]), 0.0};
    site.station_count = 1;
    if (argc >= 4) days = std::atof(argv[3]);
  }
  std::printf("Virtual TinyGS station at %s (%.2f, %.2f), %.0f days\n",
              site.city.c_str(), site.location.latitude_deg,
              site.location.longitude_deg, days);

  PassiveCampaignConfig cfg = default_campaign(days);
  cfg.sites = {site};
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  std::printf("\nReceived %zu beacons (%.1f%% of %llu transmitted)\n",
              res.traces.size(),
              100.0 * static_cast<double>(res.beacons_received) /
                  static_cast<double>(res.beacons_transmitted),
              static_cast<unsigned long long>(res.beacons_transmitted));
  const auto& [requested, observed] =
      res.windows_requested_observed.at(site.code);
  std::printf(
      "Scheduler: %zu of %zu contact windows observable with %d "
      "station(s)\n",
      observed, requested, site.station_count);

  Table t({"Constellation", "traces", "contacts", "effective", "shrink",
           "median RSSI"});
  for (const auto& spec : orbit::paper_constellations()) {
    const CellKey cell{site.code, spec.name};
    const auto outcomes = analyze_contacts(res, cell, cfg.beacon.period_s);
    const ContactStats s = summarize_contacts(outcomes);
    stats::EmpiricalCdf rssi;
    for (const auto& r : res.traces.records())
      if (r.constellation == spec.name) rssi.add(r.rssi_dbm);
    t.add_row({spec.name, std::to_string(rssi.size()),
               std::to_string(s.contact_count),
               std::to_string(s.effective_contact_count),
               fmt_pct(s.duration_shrink_fraction),
               rssi.empty() ? "-" : fmt(rssi.median(), 1) + " dBm"});
  }
  std::printf("%s", t.render().c_str());

  // In-window reception profile (the Fig 9 view, for this station).
  std::vector<double> positions;
  for (const auto& spec : orbit::paper_constellations()) {
    const auto pos =
        beacon_positions_in_window(res, {site.code, spec.name});
    positions.insert(positions.end(), pos.begin(), pos.end());
  }
  std::printf("\n%.1f%% of receptions in the middle 30-70%% of windows\n",
              100.0 * mid_window_fraction(positions));

  const std::string filename = "survey_" + site.code + ".csv";
  std::ofstream csv(filename);
  trace::write_beacon_csv(csv, res.traces.records());
  std::printf("Wrote the trace dataset to %s (paper Table 1 schema)\n",
              filename.c_str());
  return 0;
}

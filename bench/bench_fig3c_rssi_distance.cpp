// Fig 3c — Tianqi signal strength vs. link distance: received-beacon RSSI
// binned by slant range.
#include "bench_common.h"

#include "core/passive_campaign.h"
#include "core/report.h"
#include "stats/descriptive.h"
#include "stats/regression.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 3c", "Tianqi signal strength vs. distance");

  PassiveCampaignConfig cfg = default_campaign(sinet::bench::days_or(3.0));
  cfg.seed = sinet::bench::flags().seed;
  cfg.constellations = {orbit::paper_constellation("Tianqi")};
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  constexpr double kBinKm = 400.0;
  std::vector<stats::StreamingStats> bins(10);
  for (const auto& r : res.traces.records()) {
    const auto idx = static_cast<std::size_t>(r.range_km / kBinKm);
    if (idx < bins.size()) bins[idx].add(r.rssi_dbm);
  }

  Table t({"Range bin (km)", "n", "mean RSSI (dBm)", "sd"});
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i].empty()) continue;
    char label[48];
    std::snprintf(label, sizeof(label), "%4.0f-%4.0f", i * kBinKm,
                  (i + 1) * kBinKm);
    t.add_row({label, std::to_string(bins[i].count()),
               fmt(bins[i].mean(), 1),
               fmt(bins[i].count() > 1 ? bins[i].stddev() : 0.0, 1)});
  }
  std::printf("%s", t.render().c_str());

  // Fit the path-loss exponent from the traces: with line-of-sight
  // space-ground links the fit should come out near the free-space n=2
  // (receptions are SNR-censored, which biases the raw fit slightly low).
  std::vector<double> dist, rssi_v;
  for (const auto& r : res.traces.records()) {
    dist.push_back(r.range_km);
    rssi_v.push_back(r.rssi_dbm);
  }
  if (dist.size() > 10) {
    const double n = stats::fit_path_loss_exponent(dist, rssi_v);
    sinet::bench::pvm("fitted path-loss exponent",
                      "free-space n=2 (LoS space-ground links)",
                      fmt(n, 2) + " (reception-censored fit)");
  }

  // Slope check: each distance doubling costs ~6 dB (free-space).
  stats::StreamingStats near_rssi, far_rssi;
  for (const auto& r : res.traces.records()) {
    if (r.range_km < 1400.0)
      near_rssi.add(r.rssi_dbm);
    else if (r.range_km > 2000.0)
      far_rssi.add(r.rssi_dbm);
  }
  if (!near_rssi.empty() && !far_rssi.empty())
    sinet::bench::pvm("RSSI decays with distance",
                      "monotone decrease (Fig 3c)",
                      fmt(near_rssi.mean(), 1) + " dBm (<1400 km) vs " +
                          fmt(far_rssi.mean(), 1) + " dBm (>2000 km)");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

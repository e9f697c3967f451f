// Fig 8 — CDF of DtS communication distances: 80% of links for ~500 km
// constellations span 600-2,000 km; Tianqi (higher orbits) spans
// 1,100-3,500 km.
#include "bench_common.h"

#include "core/passive_campaign.h"
#include "core/report.h"
#include "orbit/constellation.h"
#include "stats/cdf.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 8", "DtS communication distances");

  PassiveCampaignConfig cfg = default_campaign(sinet::bench::days_or(3.0));
  cfg.seed = sinet::bench::flags().seed;
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  stats::EmpiricalCdf tianqi, low_orbit;
  for (const auto& r : res.traces.records()) {
    if (r.constellation == "Tianqi")
      tianqi.add(r.range_km);
    else
      low_orbit.add(r.range_km);
  }

  Table t({"Group", "n", "p10 (km)", "p50", "p90"});
  t.add_row({"~500 km constellations", std::to_string(low_orbit.size()),
             fmt(low_orbit.quantile(0.1), 0), fmt(low_orbit.median(), 0),
             fmt(low_orbit.quantile(0.9), 0)});
  t.add_row({"Tianqi (815-898 km)", std::to_string(tianqi.size()),
             fmt(tianqi.quantile(0.1), 0), fmt(tianqi.median(), 0),
             fmt(tianqi.quantile(0.9), 0)});
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("~500 km links (10th-90th pct)", "600-2,000 km",
                    fmt(low_orbit.quantile(0.1), 0) + "-" +
                        fmt(low_orbit.quantile(0.9), 0) + " km");
  sinet::bench::pvm("Tianqi links (10th-90th pct)", "1,100-3,500 km",
                    fmt(tianqi.quantile(0.1), 0) + "-" +
                        fmt(tianqi.quantile(0.9), 0) + " km");

  // Geometric bounds for context: min = altitude (zenith), max = horizon.
  std::printf("\ngeometric bounds (slant range at 0 deg elevation):\n");
  for (const auto& spec : orbit::paper_constellations()) {
    const auto& g = spec.groups.front();
    const double mid = 0.5 * (g.altitude_low_km + g.altitude_high_km);
    std::printf("  %-7s alt %6.1f km -> range %4.0f..%4.0f km\n",
                spec.name.c_str(), mid, mid,
                orbit::slant_range_km(mid, 0.0));
  }
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

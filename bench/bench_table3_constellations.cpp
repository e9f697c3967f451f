// Table 3 — Overview of measured constellations: sizes, altitude bands,
// footprints, inclinations, DtS frequencies (from the generated catalog).
#include "bench_common.h"

#include "core/report.h"
#include "orbit/constellation.h"
#include "orbit/sgp4.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Table 3", "Overview of measured constellations");

  Table t({"SNO", "Region", "# SATs", "Orbit altitude", "Footprint (km^2)",
           "Inclination", "DtS freq"});
  for (const auto& spec : orbit::paper_constellations()) {
    for (const auto& g : spec.groups) {
      const double mid_alt = 0.5 * (g.altitude_low_km + g.altitude_high_km);
      // Tianqi's published footprint matches a 0-deg edge-of-coverage
      // mask; the ~510 km constellations match ~5 deg (see EXPERIMENTS.md).
      const double mask = mid_alt > 700.0 ? 0.0 : 5.0;
      char alt[64], fp[32], freq[32];
      std::snprintf(alt, sizeof(alt), "%.1f-%.1f km", g.altitude_low_km,
                    g.altitude_high_km);
      std::snprintf(fp, sizeof(fp), "%.2fe7",
                    orbit::footprint_area_km2(mid_alt, mask) / 1e7);
      std::snprintf(freq, sizeof(freq), "%.3f MHz",
                    spec.dts_frequency_hz / 1e6);
      t.add_row({spec.name, spec.region, std::to_string(g.count), alt, fp,
                 fmt(g.inclination_deg, 2) + " deg", freq});
    }
  }
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("Tianqi gen-1 footprint", "3.27e7 km^2",
                    fmt(orbit::footprint_area_km2(856.6, 0.0) / 1e7, 2) +
                        "e7 km^2");
  sinet::bench::pvm("FOSSA footprint", "1.27e7 km^2",
                    fmt(orbit::footprint_area_km2(510.4, 5.0) / 1e7, 2) +
                        "e7 km^2");

  // All catalog entries must be propagatable — demonstrate by flying
  // every satellite one orbit.
  int ok = 0, total = 0;
  for (const auto& spec : orbit::paper_constellations()) {
    for (const auto& tle : orbit::generate_tles(spec, orbit::kJdJ2000)) {
      ++total;
      const orbit::Sgp4 prop(tle);
      if (prop.at(tle.period_minutes()).position_km.norm() > 6378.0) ++ok;
    }
  }
  std::printf("catalog health: %d/%d satellites propagate one full orbit\n",
              ok, total);
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

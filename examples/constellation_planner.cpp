// Constellation planner: how many satellites does an IoT service need?
//
//   $ ./constellation_planner [latitude]
//
// Uses the orbit substrate to answer the deployment question the paper's
// availability study raises (Sec 3.1): how daily coverage, contact gaps
// and store-and-forward buffer needs scale with constellation size,
// altitude and inclination for a target service latitude.
#include <cstdio>
#include <cstdlib>

#include "core/availability.h"
#include "core/report.h"
#include "core/scenario.h"
#include "orbit/constellation.h"

using namespace sinet;
using namespace sinet::core;

namespace {

orbit::ConstellationSpec custom(int count, double alt_km, double incl) {
  return {.name = "planned",
          .region = "-",
          .dts_frequency_hz = 433e6,
          .groups = {{count, alt_km, alt_km, incl}}};
}

double worst_gap_hours(const std::vector<orbit::ContactWindow>& windows) {
  double worst = 0.0;
  for (const double g : orbit::contact_gaps_s(windows))
    worst = std::max(worst, g);
  return worst / 3600.0;
}

}  // namespace

int main(int argc, char** argv) {
  MeasurementSite site = paper_site("HK");
  if (argc >= 2) {
    site.location.latitude_deg = std::atof(argv[1]);
    site.code = "custom";
  }
  std::printf("Planning coverage for latitude %.1f deg\n",
              site.location.latitude_deg);

  AvailabilityOptions opts;
  opts.duration_days = 2.0;
  const orbit::JulianDate epoch = campaign_epoch_jd();

  // Sweep 1: constellation size at 550 km / 97.6 deg (sun-synchronous).
  std::printf("\nCoverage vs constellation size (550 km, 97.6 deg):\n");
  Table t1({"# sats", "daily presence (h)", "worst gap (h)",
            "buffer (30-min reports)"});
  for (const int n : {1, 3, 6, 12, 24}) {
    const auto spec = custom(n, 550.0, 97.6);
    const auto windows = constellation_windows(spec, site, epoch, opts);
    const double hours =
        orbit::daily_visible_seconds(windows, epoch,
                                     epoch + opts.duration_days) / 3600.0;
    const double gap = worst_gap_hours(windows);
    t1.add_row({std::to_string(n), fmt(hours, 1), fmt(gap, 1),
                fmt(std::ceil(gap * 2.0), 0)});
  }
  std::printf("%s", t1.render().c_str());

  // Sweep 2: inclination choice for this latitude.
  std::printf("\nCoverage vs inclination (8 sats @ 550 km):\n");
  Table t2({"inclination (deg)", "daily presence (h)", "worst gap (h)"});
  for (const double incl : {30.0, 50.0, 70.0, 97.6}) {
    const auto spec = custom(8, 550.0, incl);
    const auto windows = constellation_windows(spec, site, epoch, opts);
    const double hours =
        orbit::daily_visible_seconds(windows, epoch,
                                     epoch + opts.duration_days) / 3600.0;
    t2.add_row({fmt(incl, 1), fmt(hours, 1),
                fmt(worst_gap_hours(windows), 1)});
  }
  std::printf("%s", t2.render().c_str());

  // Sweep 3: altitude trade — footprint vs link budget.
  std::printf("\nAltitude trade (single satellite):\n");
  Table t3({"altitude (km)", "footprint (km^2)", "horizon range (km)",
            "extra path loss vs 500 km"});
  for (const double alt : {400.0, 500.0, 700.0, 900.0, 1200.0}) {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%.2fe7",
                  orbit::footprint_area_km2(alt, 5.0) / 1e7);
    const double loss_delta =
        20.0 * std::log10(orbit::slant_range_km(alt, 5.0) /
                          orbit::slant_range_km(500.0, 5.0));
    t3.add_row({fmt(alt, 0), fp, fmt(orbit::slant_range_km(alt, 0.0), 0),
                fmt(loss_delta, 1) + " dB"});
  }
  std::printf("%s", t3.render().c_str());
  std::printf(
      "\nReading: more satellites shrink gaps roughly linearly; higher "
      "orbits widen footprints but cost link margin — the Tianqi fleet "
      "(815-898 km) trades a few dB for 2.5x FOSSA's footprint.\n");
  return 0;
}

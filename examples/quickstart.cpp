// Quickstart: predict when a satellite IoT constellation is reachable
// from your location, and what the link looks like during a pass.
//
//   $ ./quickstart [latitude] [longitude]
//
// Walks the core public API in ~5 minutes of reading:
//   1. pick a constellation from the built-in catalog (paper Table 3),
//   2. generate its orbit catalog and predict contact windows,
//   3. evaluate the LoRa link budget along the best pass.
#include <cstdio>
#include <exception>

#include "args.h"
#include "orbit/constellation.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"

using namespace sinet;

int main(int argc, char** argv) try {
  orbit::Geodetic where{22.32, 114.17, 0.05};  // default: Hong Kong
  if (argc >= 3) {
    where.latitude_deg = examples::parse_double_arg(argv[1], "latitude");
    where.longitude_deg = examples::parse_double_arg(argv[2], "longitude");
  }
  std::printf("Observer: %.2f deg N, %.2f deg E\n", where.latitude_deg,
              where.longitude_deg);

  // 1. The constellation catalog ships with the four constellations the
  //    IMC'25 study measured; Tianqi is the largest (22 satellites).
  const orbit::ConstellationSpec tianqi =
      orbit::paper_constellation("Tianqi");
  const orbit::JulianDate epoch = orbit::julian_from_civil(2025, 3, 1);
  const std::vector<orbit::Tle> catalog =
      orbit::generate_tles(tianqi, epoch);
  std::printf("Constellation: %s, %d satellites at %.3f MHz\n",
              tianqi.name.c_str(), tianqi.total_satellites(),
              tianqi.dts_frequency_hz / 1e6);

  // 2. Predict the next 24 hours of contact windows — one grid call
  //    fans the whole catalog across the machine's cores.
  orbit::ContactWindow best{};
  std::string best_sat;
  std::size_t window_count = 0;
  const auto all_windows = orbit::predict_passes_grid_cached(
      catalog, {orbit::GridObserver{where}}, epoch, epoch + 1.0);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    for (const orbit::ContactWindow& w : all_windows[i][0]) {
      ++window_count;
      if (w.max_elevation_deg > best.max_elevation_deg) {
        best = w;
        best_sat = catalog[i].name;
      }
    }
  }
  std::printf("Found %zu contact windows in the next 24 h\n", window_count);
  if (best_sat.empty()) {
    std::printf("No passes — try a different location.\n");
    return 0;
  }
  const orbit::CivilTime aos = orbit::civil_from_julian(best.aos_jd);
  std::printf(
      "Best pass: %s at %02d:%02d:%02.0f UTC, %.1f min, peak elevation "
      "%.0f deg\n",
      best_sat.c_str(), aos.hour, aos.minute, aos.second,
      best.duration_s() / 60.0, best.max_elevation_deg);

  // 3. Link budget along the pass: where would a 20-byte report get
  //    through on the first try?
  phy::LinkConfig uplink;
  uplink.tx_power_dbm = 22.0;
  uplink.carrier_hz = tianqi.dts_frequency_hz;
  uplink.rx_antenna = channel::AntennaType::kSatelliteTurnstile;
  const phy::ErrorModel error_model;

  const orbit::Tle* best_tle = nullptr;
  for (const orbit::Tle& tle : catalog)
    if (tle.name == best_sat) best_tle = &tle;
  const orbit::Sgp4 propagator(*best_tle);

  std::printf("\n  time(s)  elev(deg)  range(km)  SNR(dB)  PER\n");
  for (const orbit::PassSample& s :
       orbit::sample_pass(propagator, where, best, best.duration_s() / 8.0)) {
    const phy::LinkState link =
        phy::mean_link_state(uplink, s.look, channel::Weather::kSunny);
    const double per =
        error_model.packet_error_probability(link.snr_db, uplink.lora, 20);
    std::printf("  %7.0f  %9.1f  %9.0f  %7.1f  %.2f\n",
                (s.jd - best.aos_jd) * orbit::kSecondsPerDay,
                s.look.elevation_deg, s.look.range_km, link.snr_db, per);
  }
  std::printf(
      "\nNote the shape: the window edges (low elevation, long range) are "
      "lossy — the paper's central finding.\n");
  return 0;
} catch (const std::exception& e) {
  return examples::report_error(e, "quickstart [latitude longitude]");
}

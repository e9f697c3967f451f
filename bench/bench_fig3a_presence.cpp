// Fig 3a — Daily presence duration of each constellation at the four
// availability cities (Hong Kong, Sydney, London, Pittsburgh), from TLEs
// via SGP4, exactly as the paper computes "theoretical" availability.
// Includes the constellation-size ablation the paper quotes (Tianqi
// 12 -> 22 satellites: 13.4 h -> 19.1 h).
#include "bench_common.h"

#include "core/availability.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner(
      "Fig 3a", "Daily presence duration across locations (theoretical)");

  AvailabilityOptions opts;
  opts.duration_days = sinet::bench::days_or(2.0);

  Table t({"Constellation", "# SATs", "HK (h/day)", "SYD", "LDN", "PGH"});
  const auto sites = availability_sites();
  for (const auto& spec : orbit::paper_constellations()) {
    std::vector<std::string> row{spec.name,
                                 std::to_string(spec.total_satellites())};
    for (const auto& site : sites)
      row.push_back(
          fmt(daily_presence_hours(spec, site, campaign_epoch_jd(), opts), 1));
    t.add_row(row);
  }
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("FOSSA (3 sats) daily presence", "1.1-3.0 h",
                    fmt(daily_presence_hours(
                            orbit::paper_constellation("FOSSA"),
                            paper_site("HK"), campaign_epoch_jd(), opts),
                        1) + " h at HK");
  sinet::bench::pvm("PICO (9 sats) daily presence", "5.7 h",
                    fmt(daily_presence_hours(
                            orbit::paper_constellation("PICO"),
                            paper_site("HK"), campaign_epoch_jd(), opts),
                        1) + " h at HK");

  // Constellation-size ablation (paper: 12 -> 22 sats moves Tianqi's
  // availability from 13.4 h to 19.1 h).
  const auto sizes = std::vector<int>{6, 12, 16, 22};
  const auto hours = presence_vs_constellation_size(
      orbit::paper_constellation("Tianqi"), paper_site("HK"),
      campaign_epoch_jd(), sizes, opts);
  std::printf("\nTianqi availability vs constellation size (HK):\n");
  Table s({"# active sats", "daily presence (h)"});
  for (std::size_t i = 0; i < sizes.size(); ++i)
    s.add_row({std::to_string(sizes[i]), fmt(hours[i], 1)});
  std::printf("%s", s.render().c_str());
  sinet::bench::pvm("Tianqi 12 sats", "13.4 h", fmt(hours[1], 1) + " h");
  sinet::bench::pvm("Tianqi 22 sats", "19.1 h", fmt(hours[3], 1) + " h");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

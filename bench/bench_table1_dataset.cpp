// Table 1 — Dataset overview: per-city ground stations and trace volumes.
//
// The paper collected 121,744 traces over ~7 months from 27 stations; we
// run a compressed 3-day campaign and report both the raw counts and the
// per-day rate scaled to the paper's campaign spans for comparison.
#include "bench_common.h"

#include <map>

#include "core/passive_campaign.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

// Paper Table 1 rows: station count and total traces.
struct PaperRow {
  const char* city;
  int stations;
  int traces;
  double months;  ///< campaign length up to 2025/03
};
constexpr PaperRow kPaper[] = {
    {"PGH", 3, 15612, 1.0}, {"LDN", 5, 799, 1.0},  {"SH", 2, 2731, 5.0},
    {"GZ", 2, 18488, 6.0},  {"SYD", 4, 15258, 2.0}, {"HK", 6, 31330, 6.0},
    {"NC", 1, 328, 4.0},    {"YC", 4, 37198, 6.0},
};

void reproduce() {
  sinet::bench::banner("Table 1", "Dataset overview (8 cities, 27 stations)");
  const double kCampaignDays = sinet::bench::days_or(3.0);
  PassiveCampaignConfig cfg = default_campaign(kCampaignDays);
  cfg.seed = sinet::bench::flags().seed;
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  std::map<std::string, std::size_t> per_site;
  for (const auto& r : res.traces.records()) {
    const auto dash = r.station.find('-');
    per_site[r.station.substr(0, dash)]++;
  }

  Table t({"City", "# GS", "paper traces", "paper/day", "sim traces",
           "sim/day"});
  std::size_t total = 0;
  for (const PaperRow& row : kPaper) {
    const std::size_t sim = per_site[row.city];
    total += sim;
    t.add_row({row.city, std::to_string(row.stations),
               std::to_string(row.traces),
               fmt(row.traces / (row.months * 30.0), 0),
               std::to_string(sim), fmt(sim / kCampaignDays, 0)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("Totals: paper=121,744 traces over ~7 months; simulated=%zu "
              "over %.0f days (%.0f/day)\n",
              total, kCampaignDays, total / kCampaignDays);
  sinet::bench::pvm("dataset shape",
                    "busy sites (HK/YC/GZ) >> sparse sites (NC/LDN)",
                    "same ordering driven by station count and latitude");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

// Fig 9 — Where in a contact window beacons are actually received: the
// paper finds 70.4% of successful receptions inside the middle 30-70% of
// the window, i.e. the edges (low elevation, long range) are lossy.
#include "bench_common.h"

#include "core/contact_analysis.h"
#include "core/passive_campaign.h"
#include "core/report.h"
#include "stats/histogram.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 9", "Beacon receptions within a contact window");

  PassiveCampaignConfig cfg = default_campaign(sinet::bench::days_or(4.0));
  cfg.seed = sinet::bench::flags().seed;
  cfg.sites = {paper_site("HK")};
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  std::vector<double> all_positions;
  Table t({"Constellation", "receptions", "mid 30-70% share"});
  for (const char* name : {"Tianqi", "FOSSA", "PICO", "CSTP"}) {
    const auto pos = beacon_positions_in_window(res, {"HK", name});
    all_positions.insert(all_positions.end(), pos.begin(), pos.end());
    t.add_row({name, std::to_string(pos.size()),
               fmt_pct(mid_window_fraction(pos))});
  }
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("receptions in middle 30-70% of window", "70.4%",
                    fmt_pct(mid_window_fraction(all_positions)));
  sinet::bench::pvm("receptions at window edges", "29.6%",
                    fmt_pct(1.0 - mid_window_fraction(all_positions)));

  stats::Histogram hist(0.0, 1.0, 10);
  for (const double p : all_positions) hist.add(p);
  std::printf("\nnormalized in-window position histogram:\n%s",
              hist.render(40).c_str());
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

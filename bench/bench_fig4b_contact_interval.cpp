// Fig 4b — Theoretical vs. effective contact intervals: lossy edges turn
// many passes into non-contacts, inflating the time between usable
// contacts by 6.1-44.9x (paper) and forcing store-and-forward buffering.
#include "bench_common.h"

#include "core/contact_analysis.h"
#include "core/passive_campaign.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 4b", "Theoretical vs effective contact intervals");

  PassiveCampaignConfig cfg = default_campaign(sinet::bench::days_or(4.0));
  cfg.seed = sinet::bench::flags().seed;
  cfg.sites = {paper_site("HK")};
  const PassiveCampaignResult res = run_passive_campaign(cfg);

  Table t({"Constellation", "theoretical interval (min)",
           "effective interval (min)", "inflation"});
  double tianqi_eff_interval_min = 0.0;
  for (const char* name : {"Tianqi", "FOSSA", "PICO", "CSTP"}) {
    const auto outcomes =
        analyze_contacts(res, {"HK", name}, cfg.beacon.period_s);
    const ContactStats s = summarize_contacts(outcomes);
    if (std::string(name) == "Tianqi")
      tianqi_eff_interval_min = s.mean_effective_interval_s / 60.0;
    t.add_row({name, fmt(s.mean_theoretical_interval_s / 60.0, 1),
               fmt(s.mean_effective_interval_s / 60.0, 1),
               fmt(s.interval_inflation, 1) + "x"});
  }
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("interval inflation", "6.1x-44.9x",
                    "see table (larger constellations inflate more)");
  sinet::bench::pvm("Tianqi effective interval", "15.6 min",
                    fmt(tianqi_eff_interval_min, 1) + " min");

  // Store-and-forward buffer sizing implied by the intervals (paper
  // Sec 3.1 discussion): reports accumulated during the longest observed
  // outage.
  const auto outcomes = analyze_contacts(res, {"HK", "Tianqi"}, 10.0);
  std::vector<std::pair<double, double>> eff;
  for (const auto& c : outcomes)
    if (c.effective())
      eff.emplace_back(*c.first_rx_unix_s, *c.last_rx_unix_s);
  std::sort(eff.begin(), eff.end());
  double worst_gap_s = 0.0;
  for (std::size_t i = 1; i < eff.size(); ++i)
    worst_gap_s = std::max(worst_gap_s, eff[i].first - eff[i - 1].second);
  const double reports_per_gap = worst_gap_s / 1800.0;
  std::printf(
      "\nbuffer sizing: worst effective outage %.1f min -> a 30-min-cycle "
      "sensor needs >= %.0f report slots of local buffer\n",
      worst_gap_s / 60.0, std::ceil(reports_per_gap));
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

// Fig 3d — Beacon reception performance per Tianqi contact, split by
// weather: the paper observes >50% of beacons dropped even on sunny days.
//
// Reception ratio here is measured over the *effective* span of each
// contact (first to last received beacon) — over the full theoretical
// window it is far lower still (that is Fig 4a's shrink).
#include "bench_common.h"

#include "core/contact_analysis.h"
#include "core/passive_campaign.h"
#include "core/report.h"
#include "stats/cdf.h"

namespace {

using namespace sinet;
using namespace sinet::core;

double effective_span_ratio(const ContactOutcome& c, double period_s) {
  if (!c.effective() || c.effective_duration_s() <= 0.0) return 0.0;
  const double expected = c.effective_duration_s() / period_s + 1.0;
  return static_cast<double>(c.beacons_received) / expected;
}

void reproduce() {
  sinet::bench::banner("Fig 3d",
                       "Beacon reception per Tianqi contact, by weather");

  PassiveCampaignConfig cfg = default_campaign(sinet::bench::days_or(4.0));
  cfg.seed = sinet::bench::flags().seed;
  cfg.sites = {paper_site("HK")};
  cfg.constellations = {orbit::paper_constellation("Tianqi")};
  const PassiveCampaignResult res = run_passive_campaign(cfg);
  const CellKey cell{"HK", "Tianqi"};
  const auto outcomes = analyze_contacts(res, cell, cfg.beacon.period_s);

  // Per-contact in-span reception ratio, attributed to the weather of the
  // contact's first received beacon. Contacts with fewer than three
  // receptions have no meaningful span and are excluded.
  std::map<std::string, stats::EmpiricalCdf> span_by_weather;
  for (const auto& c : outcomes) {
    if (c.beacons_received < 3) continue;
    // find weather of first beacon in window
    std::string wx;
    for (const auto& r : res.traces.records()) {
      if (r.satellite != c.satellite) continue;
      const double a = orbit::julian_to_unix(c.window.aos_jd);
      const double b = orbit::julian_to_unix(c.window.los_jd);
      if (r.time_unix_s >= a && r.time_unix_s <= b) {
        wx = r.weather;
        break;
      }
    }
    if (!wx.empty())
      span_by_weather[wx].add(effective_span_ratio(c, cfg.beacon.period_s));
  }

  Table t({"Weather", "contacts", "median reception", "p90"});
  for (const auto& [wx, cdf] : span_by_weather) {
    t.add_row({wx, std::to_string(cdf.size()), fmt_pct(cdf.median()),
               fmt_pct(cdf.quantile(0.9))});
  }
  std::printf("%s", t.render().c_str());

  if (span_by_weather.count("sunny")) {
    const double median = span_by_weather["sunny"].median();
    sinet::bench::pvm("beacons dropped per contact (sunny)", ">50%",
                      fmt_pct(1.0 - median) + " (median, in-span)");
  }
  if (span_by_weather.count("sunny") && span_by_weather.count("rainy")) {
    sinet::bench::pvm(
        "rain degrades reception", "rainy < sunny",
        fmt_pct(span_by_weather["rainy"].median()) + " rainy vs " +
            fmt_pct(span_by_weather["sunny"].median()) + " sunny (median)");
  }
  std::printf("(full-window reception ratio: mean %s — the Fig 4a shrink)\n",
              fmt_pct(summarize_contacts(outcomes).mean_reception_ratio)
                  .c_str());
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

#include "core/contact_analysis.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <stdexcept>

#include "sim/thread_pool.h"

namespace sinet::core {

namespace {

bool station_at_site(const std::string& station, const std::string& site) {
  return station.size() > site.size() && station.compare(0, site.size(), site) == 0 &&
         station[site.size()] == '-';
}

/// Collect the cell's traces grouped per satellite, sorted by time.
std::map<std::string, std::vector<const trace::BeaconRecord*>>
traces_by_satellite(const PassiveCampaignResult& campaign,
                    const CellKey& cell) {
  std::map<std::string, std::vector<const trace::BeaconRecord*>> out;
  for (const trace::BeaconRecord& r : campaign.traces.records()) {
    if (r.constellation != cell.second) continue;
    if (!station_at_site(r.station, cell.first)) continue;
    out[r.satellite].push_back(&r);
  }
  for (auto& [sat, recs] : out)
    std::sort(recs.begin(), recs.end(),
              [](const trace::BeaconRecord* a, const trace::BeaconRecord* b) {
                return a->time_unix_s < b->time_unix_s;
              });
  return out;
}

}  // namespace

double ContactOutcome::effective_duration_s() const {
  if (!first_rx_unix_s || !last_rx_unix_s) return 0.0;
  return *last_rx_unix_s - *first_rx_unix_s;
}

double ContactOutcome::reception_ratio() const {
  if (beacons_expected == 0) return 0.0;
  return static_cast<double>(beacons_received) /
         static_cast<double>(beacons_expected);
}

std::vector<ContactOutcome> analyze_contacts(
    const PassiveCampaignResult& campaign, const CellKey& cell,
    double beacon_period_s, unsigned threads) {
  if (beacon_period_s <= 0.0)
    throw std::invalid_argument("analyze_contacts: bad beacon period");
  const auto it = campaign.theoretical.find(cell);
  if (it == campaign.theoretical.end())
    throw std::invalid_argument("analyze_contacts: unknown cell " +
                                cell.first + "/" + cell.second);

  const auto per_sat = traces_by_satellite(campaign, cell);
  const std::vector<SatelliteWindows>& sats = it->second;

  // Each satellite's windows are matched independently against its own
  // (read-only) trace list; per-satellite results land in indexed slots,
  // so the flattened sequence is identical for any worker count.
  std::vector<std::vector<ContactOutcome>> per_sat_outcomes(sats.size());
  const auto match_one = [&](std::size_t s) {
    const SatelliteWindows& sw = sats[s];
    const auto traces_it = per_sat.find(sw.satellite);
    std::vector<ContactOutcome>& slot = per_sat_outcomes[s];
    slot.reserve(sw.windows.size());
    for (const orbit::ContactWindow& w : sw.windows) {
      ContactOutcome c;
      c.satellite = sw.satellite;
      c.window = w;
      c.beacons_expected =
          static_cast<std::size_t>(w.duration_s() / beacon_period_s) + 1;
      if (traces_it != per_sat.end()) {
        const double a = orbit::julian_to_unix(w.aos_jd);
        const double b = orbit::julian_to_unix(w.los_jd);
        for (const trace::BeaconRecord* r : traces_it->second) {
          if (r->time_unix_s < a || r->time_unix_s > b) continue;
          ++c.beacons_received;
          if (!c.first_rx_unix_s) c.first_rx_unix_s = r->time_unix_s;
          c.last_rx_unix_s = r->time_unix_s;
        }
      }
      slot.push_back(c);
    }
  };
  if (threads == 1 || sats.size() <= 1) {
    for (std::size_t s = 0; s < sats.size(); ++s) match_one(s);
  } else {
    sim::ThreadPool::shared().parallel_for(sats.size(), match_one);
  }

  std::vector<ContactOutcome> out;
  for (std::vector<ContactOutcome>& slot : per_sat_outcomes) {
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const ContactOutcome& a, const ContactOutcome& b) {
              return a.window.aos_jd < b.window.aos_jd;
            });
  return out;
}

ContactStats summarize_contacts(const std::vector<ContactOutcome>& outcomes) {
  ContactStats s;
  s.contact_count = outcomes.size();
  if (outcomes.empty()) return s;

  double theo_sum = 0.0, eff_sum = 0.0, ratio_sum = 0.0;
  for (const ContactOutcome& c : outcomes) {
    theo_sum += c.theoretical_duration_s();
    ratio_sum += c.reception_ratio();
    if (c.effective()) {
      ++s.effective_contact_count;
      eff_sum += c.effective_duration_s();
    }
  }
  s.mean_theoretical_duration_s =
      theo_sum / static_cast<double>(outcomes.size());
  s.mean_effective_duration_s =
      s.effective_contact_count > 0
          ? eff_sum / static_cast<double>(s.effective_contact_count)
          : 0.0;
  s.duration_shrink_fraction =
      s.mean_theoretical_duration_s > 0.0
          ? 1.0 - s.mean_effective_duration_s / s.mean_theoretical_duration_s
          : 0.0;
  s.mean_reception_ratio = ratio_sum / static_cast<double>(outcomes.size());

  // Theoretical intervals: gaps between merged constellation windows.
  std::vector<orbit::ContactWindow> windows;
  windows.reserve(outcomes.size());
  for (const ContactOutcome& c : outcomes) windows.push_back(c.window);
  const std::vector<double> theo_gaps = orbit::contact_gaps_s(windows);
  if (!theo_gaps.empty()) {
    double sum = 0.0;
    for (const double g : theo_gaps) sum += g;
    s.mean_theoretical_interval_s =
        sum / static_cast<double>(theo_gaps.size());
  }

  // Effective intervals: gaps between consecutive *effective* contacts
  // (a pass with no received beacon extends the outage).
  std::vector<std::pair<double, double>> eff;
  for (const ContactOutcome& c : outcomes)
    if (c.effective()) eff.emplace_back(*c.first_rx_unix_s, *c.last_rx_unix_s);
  std::sort(eff.begin(), eff.end());
  if (eff.size() > 1) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < eff.size(); ++i) {
      const double gap = eff[i].first - eff[i - 1].second;
      if (gap > 0.0) {
        sum += gap;
        ++n;
      }
    }
    if (n > 0) s.mean_effective_interval_s = sum / static_cast<double>(n);
  }
  s.interval_inflation =
      s.mean_theoretical_interval_s > 0.0
          ? s.mean_effective_interval_s / s.mean_theoretical_interval_s
          : 0.0;
  return s;
}

std::vector<double> beacon_positions_in_window(
    const PassiveCampaignResult& campaign, const CellKey& cell) {
  const auto it = campaign.theoretical.find(cell);
  if (it == campaign.theoretical.end())
    throw std::invalid_argument("beacon_positions_in_window: unknown cell");
  const auto per_sat = traces_by_satellite(campaign, cell);

  std::vector<double> positions;
  for (const SatelliteWindows& sw : it->second) {
    const auto traces_it = per_sat.find(sw.satellite);
    if (traces_it == per_sat.end()) continue;
    for (const orbit::ContactWindow& w : sw.windows) {
      const double a = orbit::julian_to_unix(w.aos_jd);
      const double b = orbit::julian_to_unix(w.los_jd);
      if (b <= a) continue;
      for (const trace::BeaconRecord* r : traces_it->second) {
        if (r->time_unix_s < a || r->time_unix_s > b) continue;
        positions.push_back((r->time_unix_s - a) / (b - a));
      }
    }
  }
  return positions;
}

double mid_window_fraction(const std::vector<double>& positions, double lo,
                           double hi) {
  if (positions.empty()) return 0.0;
  std::size_t mid = 0;
  for (const double p : positions)
    if (p >= lo && p <= hi) ++mid;
  return static_cast<double>(mid) / static_cast<double>(positions.size());
}

}  // namespace sinet::core

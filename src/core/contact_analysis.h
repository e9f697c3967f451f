// Contact-window analytics: theoretical vs. effective durations,
// intervals, per-contact beacon accounting and in-window reception
// position — the machinery behind paper Figs 3d, 4a, 4b and 9.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/passive_campaign.h"
#include "orbit/passes.h"
#include "trace/packet_trace.h"

namespace sinet::core {

/// One theoretical contact window annotated with what was received in it.
struct ContactOutcome {
  std::string satellite;
  orbit::ContactWindow window;
  std::size_t beacons_expected = 0;  ///< beacon-grid slots in the window
  std::size_t beacons_received = 0;
  /// Time of first/last received beacon (unix s); nullopt when none.
  std::optional<double> first_rx_unix_s;
  std::optional<double> last_rx_unix_s;

  [[nodiscard]] double theoretical_duration_s() const {
    return window.duration_s();
  }
  /// Effective duration: first-to-last received beacon (paper Sec 3.1);
  /// 0 when fewer than one beacon was received.
  [[nodiscard]] double effective_duration_s() const;
  [[nodiscard]] double reception_ratio() const;
  [[nodiscard]] bool effective() const { return beacons_received > 0; }
};

/// Match a cell's beacon traces to its theoretical windows. Satellites
/// are matched independently (fanned out on the shared thread pool), then
/// assembled in deterministic order; `threads` follows the batch-API
/// convention (0 = all hardware threads, 1 = serial).
[[nodiscard]] std::vector<ContactOutcome> analyze_contacts(
    const PassiveCampaignResult& campaign, const CellKey& cell,
    double beacon_period_s, unsigned threads = 0);

/// Aggregate statistics of a cell (one site x constellation).
struct ContactStats {
  std::size_t contact_count = 0;
  std::size_t effective_contact_count = 0;
  double mean_theoretical_duration_s = 0.0;
  double mean_effective_duration_s = 0.0;
  /// 1 - effective/theoretical (paper: 73.7%-89.2% shrink).
  double duration_shrink_fraction = 0.0;
  double mean_theoretical_interval_s = 0.0;
  double mean_effective_interval_s = 0.0;
  /// effective interval / theoretical interval (paper: 6.1x-44.9x).
  double interval_inflation = 0.0;
  double mean_reception_ratio = 0.0;  ///< received/expected beacons
};

[[nodiscard]] ContactStats summarize_contacts(
    const std::vector<ContactOutcome>& outcomes);

/// Normalized positions (0 = window start, 1 = end) of every received
/// beacon across the outcomes — paper Fig 9's histogram input.
[[nodiscard]] std::vector<double> beacon_positions_in_window(
    const PassiveCampaignResult& campaign, const CellKey& cell);

/// Fraction of received beacons falling in the middle [lo, hi] portion of
/// their contact window (paper: 70.4% within 30%-70%).
[[nodiscard]] double mid_window_fraction(const std::vector<double>& positions,
                                         double lo = 0.3, double hi = 0.7);

}  // namespace sinet::core

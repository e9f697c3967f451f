// Ground-station scheduler — the paper's customized replacement for the
// TinyGS assignment algorithm (Sec 2.2).
//
// A site has a handful of single-radio stations; each station can track
// only one satellite at a time (it must be tuned to that satellite's DtS
// frequency and beacon parameters). Given the predicted contact windows
// of all target satellites, the scheduler assigns stations to windows in
// advance, maximizing observed contact time. Overlapping windows beyond
// the station budget go unobserved — which is why a 1-station site (NC)
// logs so much less than a 6-station site (HK) in Table 1.
#pragma once

#include <string>
#include <vector>

#include "orbit/passes.h"

namespace sinet::core {

/// One schedulable observation task.
struct ObservationRequest {
  std::string satellite;
  std::string constellation;
  orbit::ContactWindow window;
  /// Caller-defined id, carried unchanged into the ScheduledObservation
  /// (the passive campaign stores its satellite index here).
  std::size_t id = 0;
};

/// A window assigned to a concrete station (0-based index at the site).
struct ScheduledObservation {
  ObservationRequest request;
  int station_index = -1;
};

struct SchedulerStats {
  std::size_t requested = 0;
  std::size_t scheduled = 0;
  double requested_seconds = 0.0;
  double scheduled_seconds = 0.0;

  [[nodiscard]] double coverage_fraction() const {
    return requested_seconds > 0.0 ? scheduled_seconds / requested_seconds
                                   : 0.0;
  }
};

/// Greedy interval scheduling across `station_count` identical stations:
/// requests are sorted by window end (the classic exchange-argument
/// order) and each is placed on the first station free at its start.
/// Requests that fit no station are dropped. Retuning between
/// back-to-back windows costs `retune_gap_s` of dead time.
///
/// Throws std::invalid_argument for station_count < 1 or negative gap.
[[nodiscard]] std::vector<ScheduledObservation> schedule_observations(
    std::vector<ObservationRequest> requests, int station_count,
    double retune_gap_s = 15.0);

/// Summary statistics of a schedule against its request list.
[[nodiscard]] SchedulerStats schedule_stats(
    const std::vector<ObservationRequest>& requests,
    const std::vector<ScheduledObservation>& scheduled);

}  // namespace sinet::core

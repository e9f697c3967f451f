#include "core/scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "orbit/time.h"

namespace sinet::core {

std::vector<ScheduledObservation> schedule_observations(
    std::vector<ObservationRequest> requests, int station_count,
    double retune_gap_s) {
  if (station_count < 1)
    throw std::invalid_argument("schedule_observations: no stations");
  if (retune_gap_s < 0.0)
    throw std::invalid_argument("schedule_observations: negative gap");

  std::sort(requests.begin(), requests.end(),
            [](const ObservationRequest& a, const ObservationRequest& b) {
              return a.window.los_jd < b.window.los_jd;
            });

  const double gap_days = retune_gap_s / orbit::kSecondsPerDay;
  std::vector<double> free_at(station_count,
                              -std::numeric_limits<double>::infinity());
  std::vector<ScheduledObservation> out;
  for (ObservationRequest& req : requests) {
    // First-fit: the station that has been idle longest keeps the
    // per-station load balanced without changing feasibility.
    int best = -1;
    double best_free = std::numeric_limits<double>::infinity();
    for (int s = 0; s < station_count; ++s) {
      if (free_at[s] + gap_days <= req.window.aos_jd &&
          free_at[s] < best_free) {
        best_free = free_at[s];
        best = s;
      }
    }
    if (best < 0) continue;  // all stations busy: window unobserved
    free_at[best] = req.window.los_jd;
    out.push_back(ScheduledObservation{std::move(req), best});
  }
  return out;
}

}  // namespace sinet::core

// Ground-station scheduler tests (the customized TinyGS scheduler).
#include <gtest/gtest.h>

#include "core/passive_campaign.h"
#include "core/scheduler.h"
#include "orbit/time.h"

namespace {

using namespace sinet::core;
using sinet::orbit::ContactWindow;
using sinet::orbit::kSecondsPerDay;

ObservationRequest req(const std::string& sat, double start_s,
                       double duration_s) {
  ObservationRequest r;
  r.satellite = sat;
  r.constellation = "Test";
  r.window.aos_jd = 100.0 + start_s / kSecondsPerDay;
  r.window.los_jd = r.window.aos_jd + duration_s / kSecondsPerDay;
  r.window.tca_jd = 0.5 * (r.window.aos_jd + r.window.los_jd);
  r.window.max_elevation_deg = 45.0;
  return r;
}

TEST(Scheduler, NonOverlappingAllScheduledOnOneStation) {
  const std::vector<ObservationRequest> rs = {
      req("A", 0.0, 600.0), req("B", 700.0, 600.0), req("C", 1400.0, 600.0)};
  const auto sched = schedule_observations(rs, 1);
  ASSERT_EQ(sched.size(), 3u);
  for (const auto& s : sched) EXPECT_EQ(s.station_index, 0);
}

TEST(Scheduler, OverlapBeyondStationBudgetIsDropped) {
  // Three fully overlapping windows, two stations: one goes unobserved.
  const std::vector<ObservationRequest> rs = {
      req("A", 0.0, 600.0), req("B", 10.0, 600.0), req("C", 20.0, 600.0)};
  const auto sched = schedule_observations(rs, 2);
  EXPECT_EQ(sched.size(), 2u);
  const auto sched3 = schedule_observations(rs, 3);
  EXPECT_EQ(sched3.size(), 3u);
}

TEST(Scheduler, AssignedWindowsNeverOverlapOnAStation) {
  std::vector<ObservationRequest> rs;
  for (int i = 0; i < 40; ++i)
    rs.push_back(
        req(std::string("S").append(std::to_string(i)), i * 137.0, 400.0));
  const auto sched = schedule_observations(rs, 3, 15.0);
  // Check pairwise on each station, including the retune gap.
  for (const auto& a : sched) {
    for (const auto& b : sched) {
      if (&a == &b || a.station_index != b.station_index) continue;
      const bool disjoint =
          a.request.window.los_jd + 15.0 / kSecondsPerDay <=
              b.request.window.aos_jd ||
          b.request.window.los_jd + 15.0 / kSecondsPerDay <=
              a.request.window.aos_jd;
      EXPECT_TRUE(disjoint);
    }
  }
}

TEST(Scheduler, RetuneGapBlocksBackToBackWindows) {
  const std::vector<ObservationRequest> rs = {req("A", 0.0, 600.0),
                                              req("B", 605.0, 600.0)};
  // 5 s turnaround < 15 s retune gap: needs two stations.
  EXPECT_EQ(schedule_observations(rs, 1, 15.0).size(), 1u);
  EXPECT_EQ(schedule_observations(rs, 1, 2.0).size(), 2u);
  EXPECT_EQ(schedule_observations(rs, 2, 15.0).size(), 2u);
}

TEST(Scheduler, GreedyByEndTimeMaximizesCount) {
  // One long window overlapping two short ones: the classic case where
  // earliest-end greedy picks the two short windows.
  const std::vector<ObservationRequest> rs = {
      req("LONG", 0.0, 2000.0), req("S1", 100.0, 300.0),
      req("S2", 600.0, 300.0)};
  const auto sched = schedule_observations(rs, 1, 0.0);
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0].request.satellite, "S1");
  EXPECT_EQ(sched[1].request.satellite, "S2");
}

TEST(Scheduler, InvalidInputsThrow) {
  EXPECT_THROW(schedule_observations({}, 0), std::invalid_argument);
  EXPECT_THROW(schedule_observations({}, 1, -1.0), std::invalid_argument);
  EXPECT_TRUE(schedule_observations({}, 1).empty());
}

TEST(Scheduler, MoreStationsObserveMoreWindowsInCampaign) {
  // End-to-end: the same site with 1 vs 6 stations observes fewer vs
  // more windows (the Table 1 mechanism).
  PassiveCampaignConfig cfg = default_campaign(1.0);
  MeasurementSite one = paper_site("HK");
  one.station_count = 1;
  one.code = "ONE";
  MeasurementSite six = paper_site("HK");
  six.code = "SIX";
  cfg.sites = {one, six};
  const auto res = run_passive_campaign(cfg);
  const auto& [req1, obs1] = res.windows_requested_observed.at("ONE");
  const auto& [req6, obs6] = res.windows_requested_observed.at("SIX");
  EXPECT_EQ(req1, req6);  // same sky
  EXPECT_LT(obs1, obs6);  // fewer radios, fewer observations
  EXPECT_GT(obs1, 0u);
}

}  // namespace

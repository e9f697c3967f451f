// Developer tool: prints the active-experiment headline numbers so the
// DtS protocol/channel defaults can be checked against paper Figs 5/6/12.
#include <cstdio>

#include "core/active_experiment.h"

using namespace sinet;
using namespace sinet::core;

int main() {
  for (const int retx : {0, 5}) {
    ActiveExperimentKnobs knobs;
    knobs.duration_days = 10.0;
    knobs.max_retransmissions = retx;
    const ActiveComparison cmp = run_active_comparison(knobs);

    const auto rel = summarize_reliability(cmp.satellite.uplinks,
                                           cmp.run_end_unix_s);
    const auto retx_stats = summarize_retx(cmp.satellite.uplinks);
    const auto lat = summarize_latency(cmp.satellite);
    const auto& c = cmp.satellite.counters;

    std::printf(
        "retx<=%d: rel=%.3f (terr %.3f)  lat=%.1f min (wait %.1f + dts %.1f "
        "+ del %.1f)  zero-retx=%.2f mean-att=%.2f\n",
        retx, rel.reliability, cmp.terrestrial.delivered_fraction(),
        lat.mean_min, lat.mean_breakdown.wait_for_pass_s / 60.0,
        lat.mean_breakdown.dts_transfer_s / 60.0,
        lat.mean_breakdown.delivery_s / 60.0, retx_stats.zero_retx_fraction,
        retx_stats.mean_attempts);
    std::printf(
        "  beacons sent=%llu heard=%llu (%.3f/node, report holders only)  "
        "up att=%llu rx=%llu "
        "coll=%llu  acks %llu/%llu dup=%llu\n",
        (unsigned long long)c.beacons_sent,
        (unsigned long long)c.beacons_heard,
        (double)c.beacons_heard / (3.0 * (double)c.beacons_sent),
        (unsigned long long)c.uplink_attempts,
        (unsigned long long)c.uplinks_received,
        (unsigned long long)c.uplinks_collided,
        (unsigned long long)c.acks_received,
        (unsigned long long)c.acks_sent,
        (unsigned long long)c.duplicate_uplinks);

    // Energy shape.
    const auto& r = cmp.satellite.node_residency.front();
    std::printf("  node0 time: rx=%.1f%% tx=%.3f%% sleep=%.1f%%\n",
                100.0 * r.time_fraction(energy::Mode::kRx),
                100.0 * r.time_fraction(energy::Mode::kTx),
                100.0 * r.time_fraction(energy::Mode::kSleep));
  }
  return 0;
}

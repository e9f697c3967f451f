// Thread-count invariance suite for the sharded population engine.
//
// The contract under test: DtsAggregates and DtsCounters are
// bit-identical for every sim_threads value — not statistically close,
// EXPECT_EQ on every counter, every double sum, every histogram bin and
// every residency mode. The schedule (fixed time slices, footprint
// conflict shards, counter-based RNG streams, fixed merge orders) makes
// that hold by construction; this suite is the regression fence.
//
// DtsParallelStress.HighContentionFootprints doubles as the TSan stress
// target (tools/run_sanitizers.sh tsan preset): every node on a handful
// of sites so footprint shards are as contended as the scheduler allows.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "energy/power_model.h"
#include "net/dts_batch.h"
#include "net/dts_network.h"
#include "obs/metrics.h"
#include "stats/histogram.h"

namespace {

using namespace sinet;
using namespace sinet::net;

DtsNetworkConfig parallel_config(std::size_t nodes, double duration_days) {
  DtsNetworkConfig cfg = scale_fleet_config(
      nodes, 22, 16, core::campaign_epoch_jd(), duration_days);
  // Paper constellation: its contact windows stay in the global cache
  // across cases, so only the first run pays pass prediction.
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.trace_node_threshold = 64;  // force the sharded aggregate engine
  return cfg;
}

void expect_histograms_equal(const stats::Histogram& a,
                             const stats::Histogram& b, const char* name) {
  SCOPED_TRACE(name);
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i)
    EXPECT_EQ(a.count(i), b.count(i)) << "bin " << i;
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.nan(), b.nan());
  EXPECT_EQ(a.total(), b.total());
}

void expect_results_identical(const DtsNetworkResult& a,
                              const DtsNetworkResult& b) {
  EXPECT_EQ(a.counters.beacons_sent, b.counters.beacons_sent);
  EXPECT_EQ(a.counters.beacons_heard, b.counters.beacons_heard);
  EXPECT_EQ(a.counters.uplink_attempts, b.counters.uplink_attempts);
  EXPECT_EQ(a.counters.uplinks_received, b.counters.uplinks_received);
  EXPECT_EQ(a.counters.uplinks_collided, b.counters.uplinks_collided);
  EXPECT_EQ(a.counters.acks_sent, b.counters.acks_sent);
  EXPECT_EQ(a.counters.acks_received, b.counters.acks_received);
  EXPECT_EQ(a.counters.duplicate_uplinks, b.counters.duplicate_uplinks);
  EXPECT_EQ(a.counters.satellite_buffer_drops,
            b.counters.satellite_buffer_drops);
  EXPECT_EQ(a.counters.background_losses, b.counters.background_losses);

  EXPECT_EQ(a.agg.reports_generated, b.agg.reports_generated);
  EXPECT_EQ(a.agg.reports_delivered, b.agg.reports_delivered);
  EXPECT_EQ(a.agg.eligible_generated, b.agg.eligible_generated);
  EXPECT_EQ(a.agg.eligible_delivered, b.agg.eligible_delivered);
  EXPECT_EQ(a.agg.local_buffer_drops, b.agg.local_buffer_drops);
  EXPECT_EQ(a.agg.packets_abandoned, b.agg.packets_abandoned);
  EXPECT_EQ(a.agg.sum_end_to_end_s, b.agg.sum_end_to_end_s);
  EXPECT_EQ(a.agg.sum_wait_s, b.agg.sum_wait_s);
  EXPECT_EQ(a.agg.wait_samples, b.agg.wait_samples);
  EXPECT_EQ(a.agg.sum_dts_transfer_s, b.agg.sum_dts_transfer_s);
  EXPECT_EQ(a.agg.sum_delivery_s, b.agg.sum_delivery_s);
  EXPECT_EQ(a.agg.breakdown_samples, b.agg.breakdown_samples);

  expect_histograms_equal(a.agg.latency_s, b.agg.latency_s, "latency_s");
  expect_histograms_equal(a.agg.wait_s, b.agg.wait_s, "wait_s");
  expect_histograms_equal(a.agg.attempts, b.agg.attempts, "attempts");

  for (int m = 0; m < energy::kModeCount; ++m) {
    const auto mode = static_cast<energy::Mode>(m);
    EXPECT_EQ(a.agg.fleet_residency.seconds_in(mode),
              b.agg.fleet_residency.seconds_in(mode))
        << "residency mode " << m;
  }
}

/// The fleet of `cfg` as an explicit node list whose receive antennas
/// cycle through every ground antenna type, so the nodes at each site
/// draw their beacons from several prepared links per slot.
DtsNetworkConfig mixed_antenna_config(const DtsNetworkConfig& cfg) {
  constexpr channel::AntennaType kAntennas[] = {
      channel::AntennaType::kQuarterWaveMonopole,
      channel::AntennaType::kFiveEighthsWaveMonopole,
      channel::AntennaType::kDipole,
      channel::AntennaType::kSatelliteTurnstile,
      channel::AntennaType::kIsotropic,
  };
  DtsNetworkConfig mixed = cfg;
  mixed.fleet = NodeFleet{};
  for (std::size_t n = 0; n < cfg.fleet.count; ++n) {
    IotNodeConfig nc = detail::dts_node_config(cfg, n);
    nc.antenna = kAntennas[(n / cfg.fleet.sites.size()) % std::size(kAntennas)];
    mixed.nodes.push_back(nc);
  }
  return mixed;
}

TEST(DtsParallel, ThreadCountInvariance) {
  // Three scenario shapes (ALOHA w/ congestion, scheduled w/ ADR, mixed
  // node antennas) so the invariance covers both access schemes' draw
  // sequences and several prepared beacon links per location.
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    DtsNetworkConfig cfg = parallel_config(2000, 0.1);
    cfg.seed = 7000 + static_cast<std::uint64_t>(variant);
    if (variant == 1) {
      cfg.uplink_access = UplinkAccess::kScheduled;
      cfg.adaptive_sf = true;
    }
    if (variant == 2) cfg = mixed_antenna_config(cfg);
    cfg.sim_threads = 1;
    const DtsNetworkResult reference = run_dts_network(cfg);
    ASSERT_GT(reference.agg.reports_generated, 0u);
    ASSERT_GT(reference.counters.beacons_sent, 0u);
    for (const unsigned threads : {2u, 4u, 0u}) {  // 0 = all hw threads
      SCOPED_TRACE("threads " + std::to_string(threads));
      cfg.sim_threads = threads;
      expect_results_identical(reference, run_dts_network(cfg));
    }
  }
}

TEST(DtsParallel, PublishesAvailableParallelism) {
  // With a registry every shard is timed: total shard work, the sum of
  // each slice's slowest shard, and their ratio. Timing must not touch
  // the simulation itself.
  DtsNetworkConfig cfg = parallel_config(2000, 0.1);
  cfg.sim_threads = 4;
  const DtsNetworkResult untimed = run_dts_network(cfg);
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const DtsNetworkResult timed = run_dts_network(cfg);
  expect_results_identical(untimed, timed);

  const auto gauges = metrics.snapshot().gauges;
  for (const char* name :
       {"net.dts.parallel.work_s", "net.dts.parallel.critical_s",
        "net.dts.parallel.available", "net.dts.parallel.max_slice_shards"})
    ASSERT_TRUE(gauges.count(name)) << name;
  const double work = gauges.at("net.dts.parallel.work_s").value;
  const double critical = gauges.at("net.dts.parallel.critical_s").value;
  const double available = gauges.at("net.dts.parallel.available").value;
  EXPECT_GT(critical, 0.0);
  EXPECT_GE(work, critical);
  EXPECT_DOUBLE_EQ(available, work / critical);
  // A slice's work is at most its shard count times its slowest shard.
  EXPECT_LE(available,
            gauges.at("net.dts.parallel.max_slice_shards").value);
  EXPECT_LE(gauges.at("net.dts.parallel.max_slice_shards").value,
            static_cast<double>(cfg.constellation.total_satellites()));
}

TEST(DtsParallel, ExactModeIgnoresThreads) {
  // Below the trace threshold the bit-parity exact engine runs; the
  // thread knob must not reroute those configs into the sharded engine.
  DtsNetworkConfig cfg = parallel_config(48, 0.1);
  cfg.trace_node_threshold = 64;  // 48 nodes <= threshold: exact mode
  cfg.sim_threads = 1;
  const DtsNetworkResult serial = run_dts_network(cfg);
  cfg.sim_threads = 4;
  const DtsNetworkResult threaded = run_dts_network(cfg);
  ASSERT_FALSE(serial.uplinks.empty()) << "exact mode must keep traces";
  ASSERT_EQ(serial.uplinks.size(), threaded.uplinks.size());
  for (std::size_t i = 0; i < serial.uplinks.size(); ++i) {
    EXPECT_EQ(serial.uplinks[i].sequence, threaded.uplinks[i].sequence);
    EXPECT_EQ(serial.uplinks[i].node, threaded.uplinks[i].node);
    EXPECT_EQ(serial.uplinks[i].server_rx_unix_s,
              threaded.uplinks[i].server_rx_unix_s);
    EXPECT_EQ(serial.uplinks[i].delivered, threaded.uplinks[i].delivered);
  }
  expect_results_identical(serial, threaded);
}

TEST(DtsParallel, ShortProbeRunsKeepNonzeroEligiblePopulation) {
  // Regression: scale_ablation's 100k-node probe runs 0.05 days
  // (4320 s), shorter than the default 6 h aggregate tail exclusion —
  // every report was classified ineligible and the probe published
  // dts.eligible_generated = 0 / dts.eligible_pdr = 0. The exclusion is
  // now clamped to half the run duration.
  DtsNetworkConfig cfg = parallel_config(2000, 0.05);
  ASSERT_LT(cfg.duration_days * 86400.0, cfg.aggregate_tail_exclusion_s)
      << "regression config must be shorter than the configured tail";
  const DtsNetworkResult res = run_dts_network(cfg);
  ASSERT_GT(res.agg.reports_generated, 0u);
  EXPECT_GT(res.agg.eligible_generated, 0u)
      << "tail exclusion swallowed the whole probe run";
  EXPECT_LE(res.agg.eligible_delivered, res.agg.eligible_generated);
  EXPECT_LE(res.agg.eligible_generated, res.agg.reports_generated);
  // The clamp: exactly the first half of the run stays eligible.
  EXPECT_EQ(net::detail::effective_tail_exclusion_s(cfg),
            cfg.duration_days * 86400.0 / 2.0);
}

TEST(DtsParallelStress, HighContentionFootprints) {
  // Every node on 4 sites inside one footprint-sized patch: the
  // conflict scheduler gets maximal location sharing, so this is the
  // worst case for shard isolation. Run under TSan via
  // tools/run_sanitizers.sh; the EXPECT_EQs double as a determinism
  // check under real contention.
  DtsNetworkConfig cfg = parallel_config(10000, 0.05);
  cfg.fleet.sites.clear();
  for (int i = 0; i < 4; ++i)
    cfg.fleet.sites.push_back(
        orbit::Geodetic{22.7 + 0.2 * i, 100.9 + 0.2 * i, 1.0});
  cfg.sim_threads = 4;
  const DtsNetworkResult a = run_dts_network(cfg);
  const DtsNetworkResult b = run_dts_network(cfg);
  ASSERT_GT(a.agg.reports_generated, 0u);
  expect_results_identical(a, b);
  cfg.sim_threads = 1;
  expect_results_identical(a, run_dts_network(cfg));
}

}  // namespace

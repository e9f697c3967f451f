// Thread-count invariance suite for the DtS engine.
//
// The contract under test: the whole DtsNetworkResult — every trace
// record and per-node residency of a traced fleet, every counter, double
// sum, histogram bin and fleet residency mode — is bit-identical for
// every sim_threads value; not statistically close, EXPECT_EQ. The
// schedule (fixed time slices, footprint conflict shards run as a
// dependency graph, counter-based RNG streams, fixed merge orders) makes
// that hold by construction; this suite is the regression fence.
//
// The DtsParallelStress cases double as the TSan stress targets
// (tools/run_sanitizers.sh tsan preset): every node on a handful of sites
// so footprint shards are as contended as the scheduler allows, untraced
// and traced (where flushes fill records of nodes other shards own).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "dts_result_expect.h"
#include "net/dts_network.h"
#include "obs/metrics.h"

namespace {

using namespace sinet;
using namespace sinet::net;
using net::test::expect_results_identical;

DtsNetworkConfig parallel_config(std::size_t nodes, double duration_days) {
  DtsNetworkConfig cfg = scale_fleet_config(
      nodes, 22, 16, core::campaign_epoch_jd(), duration_days);
  // Paper constellation: its contact windows stay in the global cache
  // across cases, so only the first run pays pass prediction.
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  return cfg;
}

TEST(DtsParallel, ThreadCountInvariance) {
  // Three scenario shapes (ALOHA w/ congestion, scheduled w/ ADR and
  // Doppler precompensation, and a fleet on the 5/8-wave monopole Fig 5b
  // sets) so the invariance covers both access schemes' draw sequences,
  // the per-SF uplink receptions on the precompensated Doppler, and two
  // different beacon links. 2,000 nodes are traced, so every record and
  // node residency is compared.
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    DtsNetworkConfig cfg = parallel_config(2000, 0.1);
    cfg.seed = 7000 + static_cast<std::uint64_t>(variant);
    if (variant == 1) {
      cfg.uplink_access = UplinkAccess::kScheduled;
      cfg.adaptive_sf = true;
      cfg.doppler_precompensation = true;
    }
    if (variant == 2)
      cfg.fleet.prototype.antenna =
          channel::AntennaType::kFiveEighthsWaveMonopole;
    cfg.sim_threads = 1;
    const DtsNetworkResult reference = run_dts_network(cfg);
    ASSERT_GT(reference.agg.reports_generated, 0u);
    ASSERT_GT(reference.counters.beacons_sent, 0u);
    ASSERT_EQ(reference.uplinks.size(), reference.agg.reports_generated);
    ASSERT_EQ(reference.node_residency.size(), std::size_t{2000});
    for (const unsigned threads : {2u, 4u, 0u}) {  // 0 = all hw threads
      SCOPED_TRACE("threads " + std::to_string(threads));
      cfg.sim_threads = threads;
      expect_results_identical(reference, run_dts_network(cfg));
    }
  }
}

TEST(DtsParallel, PublishesAvailableParallelism) {
  // With a registry every shard is timed: total shard work, the longest
  // chain of shard times through the shard graph, and their ratio.
  // Timing must not touch the simulation itself.
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
        "net.dts.parallel.available", "net.dts.parallel.shards",
        "net.dts.parallel.max_slice_shards"})
    ASSERT_TRUE(gauges.count(name)) << name;
  const double work = gauges.at("net.dts.parallel.work_s").value;
  const double critical = gauges.at("net.dts.parallel.critical_s").value;
  const double available = gauges.at("net.dts.parallel.available").value;
  EXPECT_GT(critical, 0.0);
  EXPECT_DOUBLE_EQ(available, work / critical);
  // The critical path is a chain of shards, so at most their total work,
  // and at least the slowest shard, so available parallelism is at most
  // the shard count.
  EXPECT_LE(critical, work);
  EXPECT_LE(available, gauges.at("net.dts.parallel.shards").value);
  EXPECT_LE(gauges.at("net.dts.parallel.max_slice_shards").value,
            static_cast<double>(cfg.constellation.total_satellites()));
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

TEST(DtsParallelStress, TracedFlushesAcrossShards) {
  // A traced fleet (4,000 nodes) on 4 co-located sites, 4 workers. A
  // satellite that only flushes in a slice is a shard of its own, and
  // its flush fills the records of nodes whose location another shard
  // owns in that slice (48 of 6,343 flush writes in this run) while
  // that shard, or one of a later slice the shard graph lets run
  // alongside, writes other records of the same vector. Run under TSan
  // via tools/run_sanitizers.sh; the records must not depend on the
  // workers.
  DtsNetworkConfig cfg = parallel_config(4000, 0.25);
  ASSERT_LE(cfg.fleet.count, kTraceNodeLimit);
  cfg.fleet.sites.clear();
  for (int i = 0; i < 4; ++i)
    cfg.fleet.sites.push_back(
        orbit::Geodetic{22.7 + 0.2 * i, 100.9 + 0.2 * i, 1.0});
  cfg.sim_threads = 4;
  const DtsNetworkResult threaded = run_dts_network(cfg);
  ASSERT_EQ(threaded.uplinks.size(), threaded.agg.reports_generated);
  ASSERT_GT(threaded.agg.reports_delivered, 0u);
  cfg.sim_threads = 1;
  expect_results_identical(threaded, run_dts_network(cfg));
}

}  // namespace

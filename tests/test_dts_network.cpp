// Integration tests of the end-to-end DtS network simulator.
//
// Runs are kept short (a few days, reduced constellation where possible)
// so the suite stays fast; the benches run the full-scale configurations.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "core/active_experiment.h"
#include "core/scenario.h"
#include "net/dts_network.h"
#include "obs/metrics.h"

namespace {

using namespace sinet::net;

DtsNetworkConfig small_config(double days = 2.0) {
  DtsNetworkConfig cfg = tianqi_agriculture_config(
      sinet::core::campaign_epoch_jd(), days);
  cfg.pass_scan_step_s = 60.0;
  return cfg;
}

const DtsNetworkResult& shared_run() {
  static const DtsNetworkResult result = run_dts_network(small_config());
  return result;
}

TEST(DtsNetwork, GeneratesAllReports) {
  const auto& res = shared_run();
  // 3 nodes x 96 reports over 2 days (plus/minus phase effects).
  EXPECT_GE(res.uplinks.size(), 280u);
  EXPECT_LE(res.uplinks.size(), 290u);
}

TEST(DtsNetwork, DeliversMostPackets) {
  const auto& res = shared_run();
  // With 5 retransmissions the paper reaches ~96%; the exact value
  // depends on the channel, but the bulk must get through.
  EXPECT_GT(res.delivered_fraction(), 0.6);
}

TEST(DtsNetwork, RecordInvariants) {
  const auto& res = shared_run();
  for (const auto& u : res.uplinks) {
    if (u.first_tx_unix_s >= 0.0) {
      EXPECT_GE(u.first_tx_unix_s, u.generated_unix_s);
    }
    if (u.satellite_rx_unix_s >= 0.0) {
      EXPECT_GE(u.satellite_rx_unix_s, u.first_tx_unix_s);
      EXPECT_FALSE(u.via_satellite.empty());
    }
    if (u.delivered) {
      EXPECT_GE(u.server_rx_unix_s, u.satellite_rx_unix_s);
      EXPECT_GT(u.dts_attempts, 0);
      // ARQ budget: first attempt + <= 5 retransmissions.
      EXPECT_LE(u.dts_attempts, 6);
    }
  }
}

TEST(DtsNetwork, CountersAreConsistent) {
  const auto& res = shared_run();
  const auto& c = res.counters;
  EXPECT_GT(c.beacons_sent, 0u);
  EXPECT_GT(c.beacons_heard, 0u);
  EXPECT_LE(c.beacons_heard, c.beacons_sent * 3);  // <= nodes x sent
  EXPECT_LE(c.uplinks_received, c.uplink_attempts);
  EXPECT_LE(c.acks_received, c.acks_sent);
  EXPECT_LE(c.acks_sent, c.uplinks_received);
}

TEST(DtsNetwork, BeaconLossIsSubstantial) {
  // The headline passive finding: a large share of beacons never decode.
  const auto& res = shared_run();
  const double heard_per_node =
      static_cast<double>(res.counters.beacons_heard) /
      (3.0 * static_cast<double>(res.counters.beacons_sent));
  EXPECT_LT(heard_per_node, 0.8);
  EXPECT_GT(heard_per_node, 0.01);
}

TEST(DtsNetwork, LatencyIsHourScale) {
  const auto& res = shared_run();
  // Paper Fig 5c: mean 135 minutes. Anything from tens of minutes to a
  // few hours is the right shape; sub-minute would mean the orbital wait
  // is not being modeled.
  const double mean_min = res.mean_end_to_end_s() / 60.0;
  EXPECT_GT(mean_min, 10.0);
  EXPECT_LT(mean_min, 600.0);
}

TEST(DtsNetwork, LatencyBreakdownSumsToTotal) {
  const auto& res = shared_run();
  const auto b = sinet::core::summarize_latency(res).mean_breakdown;
  EXPECT_GT(b.wait_for_pass_s, 0.0);
  EXPECT_GT(b.dts_transfer_s, 0.0);
  EXPECT_GT(b.delivery_s, 0.0);
  // Decomposition applies to packets with full timing; compare against
  // the mean over the same subset, loosely.
  const double total = b.wait_for_pass_s + b.dts_transfer_s + b.delivery_s;
  EXPECT_NEAR(total, res.mean_end_to_end_s(), res.mean_end_to_end_s() * 0.2);
}

TEST(DtsNetwork, EnergyResidencyShape) {
  const auto& res = shared_run();
  ASSERT_EQ(res.node_residency.size(), 3u);
  for (const auto& r : res.node_residency) {
    // Rx (waiting through theoretical windows) dwarfs Tx airtime.
    EXPECT_GT(r.seconds_in(sinet::energy::Mode::kRx),
              r.seconds_in(sinet::energy::Mode::kTx) * 50.0);
    EXPECT_GT(r.seconds_in(sinet::energy::Mode::kSleep), 0.0);
  }
}

TEST(DtsNetwork, DeterministicForSameSeed) {
  DtsNetworkConfig cfg = small_config(1.0);
  const auto a = run_dts_network(cfg);
  const auto b = run_dts_network(cfg);
  ASSERT_EQ(a.uplinks.size(), b.uplinks.size());
  EXPECT_EQ(a.counters.uplink_attempts, b.counters.uplink_attempts);
  for (std::size_t i = 0; i < a.uplinks.size(); ++i)
    EXPECT_EQ(a.uplinks[i].delivered, b.uplinks[i].delivered);
}

TEST(DtsNetwork, SeedChangesOutcomes) {
  DtsNetworkConfig cfg = small_config(1.0);
  const auto a = run_dts_network(cfg);
  cfg.seed = 777;
  const auto b = run_dts_network(cfg);
  EXPECT_NE(a.counters.uplinks_received, b.counters.uplinks_received);
}

TEST(DtsNetwork, NoRetxLowersAttemptCount) {
  DtsNetworkConfig cfg = small_config(1.0);
  cfg.fleet.prototype.max_retransmissions = 0;
  const auto res = run_dts_network(cfg);
  for (const auto& u : res.uplinks) EXPECT_LE(u.dts_attempts, 1);
}

TEST(DtsNetwork, ConfigValidation) {
  DtsNetworkConfig cfg = small_config();
  cfg.fleet.count = 0;
  EXPECT_THROW(run_dts_network(cfg), std::invalid_argument);

  DtsNetworkConfig cfg1 = small_config();
  cfg1.fleet.sites.clear();
  EXPECT_THROW(run_dts_network(cfg1), std::invalid_argument);

  DtsNetworkConfig cfg2 = small_config();
  cfg2.duration_days = 0.0;
  EXPECT_THROW(run_dts_network(cfg2), std::invalid_argument);

  DtsNetworkConfig cfg3 = small_config();
  cfg3.ground_stations.clear();
  EXPECT_THROW(run_dts_network(cfg3), std::invalid_argument);

  DtsNetworkConfig cfg4 = small_config();
  cfg4.beacon.period_s = 0.1;
  EXPECT_THROW(run_dts_network(cfg4), std::invalid_argument);
  // `period_s <= 0.5` is false for a NaN or infinite period, and either
  // would send no beacon at all.
  for (const double period : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    DtsNetworkConfig silent = small_config();
    silent.beacon.period_s = period;
    EXPECT_THROW(run_dts_network(silent), std::invalid_argument);
  }
  // An uplink spreading factor outside SF7..SF12.
  for (const int sf : {6, 13}) {
    DtsNetworkConfig bad_sf = small_config();
    bad_sf.uplink.lora.sf = static_cast<sinet::phy::SpreadingFactor>(sf);
    EXPECT_THROW(run_dts_network(bad_sf), std::invalid_argument);
  }

  // Report loops that would never end: an unbounded (or NaN) duration,
  // and an interval too small to move the report clock at its end.
  for (const double days : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    DtsNetworkConfig unbounded = small_config();
    unbounded.duration_days = days;
    EXPECT_THROW(run_dts_network(unbounded), std::invalid_argument);
  }
  DtsNetworkConfig stuck = small_config();
  stuck.fleet.prototype.report_interval_s = 1e-300;
  EXPECT_THROW(run_dts_network(stuck), std::invalid_argument);
  // An interval that moves the clock, but gives a node more reports than
  // kMaxReportsPerNode.
  DtsNetworkConfig runaway = small_config();
  runaway.fleet.prototype.report_interval_s =
      runaway.duration_days * 86400.0 / (kMaxReportsPerNode * 1.01);
  EXPECT_THROW(run_dts_network(runaway), std::invalid_argument);
}

TEST(DtsNetwork, CongestionCausesBackgroundLosses) {
  const auto& res = shared_run();
  // The footprint-load model should account for some uplink losses.
  EXPECT_GT(res.counters.background_losses, 0u);
  EXPECT_LE(res.counters.background_losses,
            res.counters.uplinks_collided);
}

// Footprint load is what causes background loss: with no nominal load and
// no congested blocks, no uplink is lost to it.
TEST(DtsNetwork, DisablingCongestionImprovesUplink) {
  DtsNetworkConfig with = small_config(1.5);
  DtsNetworkConfig without = small_config(1.5);
  without.congestion.nominal_load_mean = 0.0;
  without.congestion.congested_probability = 0.0;
  const auto a = run_dts_network(with);
  const auto b = run_dts_network(without);
  EXPECT_EQ(b.counters.background_losses, 0u);
  const double loss_a =
      1.0 - static_cast<double>(a.counters.uplinks_received) /
                static_cast<double>(a.counters.uplink_attempts);
  const double loss_b =
      1.0 - static_cast<double>(b.counters.uplinks_received) /
                static_cast<double>(b.counters.uplink_attempts);
  EXPECT_GT(loss_a, loss_b);
}

// A full satellite buffer rejects the incoming packet (tail drop) and
// sends no ACK for it, so the node keeps the report for another attempt.
TEST(DtsNetwork, FullSatelliteBufferDropsWithoutAck) {
  DtsNetworkConfig cfg = small_config(1.0);
  cfg.satellite_buffer_capacity = 2;
  const auto res = run_dts_network(cfg);
  const DtsCounters& c = res.counters;
  EXPECT_GT(c.satellite_buffer_drops, 0u);
  EXPECT_EQ(c.acks_sent + c.satellite_buffer_drops, c.uplinks_received);
}

TEST(DtsNetwork, DeliveryLossIsUnrecoverable) {
  // With heavy operator-side loss, even infinite-patience ARQ cannot
  // deliver what the operator drops after the ACK.
  DtsNetworkConfig cfg = small_config(1.5);
  cfg.delivery_loss_probability = 0.5;
  const auto lossy = run_dts_network(cfg);
  cfg.delivery_loss_probability = 0.0;
  const auto clean = run_dts_network(cfg);
  EXPECT_LT(lossy.delivered_fraction(), clean.delivered_fraction());
}

TEST(DtsNetwork, ConcurrencyIsBoundedByNodeCount) {
  const auto& res = shared_run();
  for (const auto& u : res.uplinks) {
    EXPECT_LE(u.max_concurrent_tx, 3);
    EXPECT_GE(u.max_concurrent_tx, 0);
  }
}

// Regression: GS drain times used to be computed as aos+20 / los-5
// without clamping, so short contacts got flush events outside their own
// window (los-5 before aos, or aos+20 after los).
TEST(GsFlushTimes, NominalContactDrainsTwice) {
  const auto times = gs_flush_times(100.0, 500.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 120.0);
  EXPECT_DOUBLE_EQ(times[1], 495.0);
}

TEST(GsFlushTimes, ShortContactCollapsesToMidpointFlush) {
  // 10 s window: the old schedule put flushes at aos+20 (after LOS) and
  // los-5 (before AOS+20 — crossed); now it is one midpoint flush.
  const auto times = gs_flush_times(100.0, 110.0);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 105.0);
}

TEST(GsFlushTimes, AllFlushesStayInsideTheWindow) {
  for (const double dur : {0.0, 1.0, 24.9, 25.0, 26.0, 300.0, 900.0}) {
    const double aos = 1000.0;
    for (const double t : gs_flush_times(aos, aos + dur)) {
      EXPECT_GE(t, aos);
      EXPECT_LE(t, aos + dur);
    }
  }
}

TEST(GsFlushTimes, InvertedWindowYieldsNothing) {
  EXPECT_TRUE(gs_flush_times(10.0, 5.0).empty());
}

// Regression: the per-node report phase used to be a raw 60 s * index,
// so with many nodes a late node's first report slid a whole interval
// and it generated fewer reports over the run than its peers. Wrapped
// modulo the interval, every node now reports equally often.
TEST(DtsNetwork, ManyNodesGenerateEqualReportCounts) {
  DtsNetworkConfig cfg = small_config(0.25);
  cfg.fleet.count = 12;
  // 60 s * 11 > 600: the old phase overflowed.
  cfg.fleet.prototype.report_interval_s = 600.0;
  const auto res = run_dts_network(cfg);
  std::map<std::string, std::size_t> per_node;
  for (const auto& u : res.uplinks) ++per_node[u.node];
  ASSERT_EQ(per_node.size(), 12u);
  const std::size_t expected = per_node.begin()->second;
  EXPECT_EQ(expected, 36u);  // 0.25 days / 600 s
  for (const auto& [name, count] : per_node)
    EXPECT_EQ(count, expected) << name;
}

// Observability wiring: a run with a registry attached must report the
// same counters the result carries, and attaching metrics must not
// perturb the simulation itself.
TEST(DtsNetwork, MetricsMatchResultCounters) {
  sinet::obs::MetricsRegistry reg;
  DtsNetworkConfig cfg = small_config(1.0);
  cfg.metrics = &reg;
  const auto res = run_dts_network(cfg);
  const sinet::obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("net.dts.beacons_sent"), res.counters.beacons_sent);
  EXPECT_EQ(s.counters.at("net.dts.uplink_attempts"),
            res.counters.uplink_attempts);
  EXPECT_EQ(s.counters.at("net.dts.uplinks_received"),
            res.counters.uplinks_received);
  EXPECT_EQ(s.counters.at("net.dts.reports_generated"), res.uplinks.size());
  EXPECT_EQ(s.counters.at("net.dts.beacon_decodes"),
            res.counters.beacon_decodes);
  EXPECT_EQ(s.counters.at("net.dts.beacon_decodes_certified"),
            res.counters.beacon_decodes_certified);
  EXPECT_EQ(s.counters.at("net.dts.ack_decodes_certified"),
            res.counters.ack_decodes_certified);
  // A settled decode is a lost one, and the bound settles most beacon
  // decodes: 10,643 of 11,331 on this farm.
  EXPECT_LE(res.counters.beacon_decodes_certified + res.counters.beacons_heard,
            res.counters.beacon_decodes);
  EXPECT_GT(static_cast<double>(res.counters.beacon_decodes_certified),
            0.8 * static_cast<double>(res.counters.beacon_decodes));
  EXPECT_LE(res.counters.ack_decodes_certified,
            res.counters.acks_sent - res.counters.acks_received);
  EXPECT_DOUBLE_EQ(s.gauges.at("net.dts.delivered_fraction").value,
                   res.delivered_fraction());
  // The shard schedule, the thread pool and the contact-window cache all
  // fed the same registry.
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.slices"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.slices").value, 0.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.shards"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.shards").value, 0.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.threads"));
  EXPECT_GE(s.gauges.at("net.dts.parallel.threads").value, 1.0);
  EXPECT_TRUE(s.counters.count("sim.thread_pool.tasks_run"));
  EXPECT_TRUE(s.counters.count("orbit.pass_cache.hits") ||
              s.counters.count("orbit.pass_cache.misses"));
  EXPECT_TRUE(s.gauges.count("net.dts.phase.setup_s"));
  EXPECT_TRUE(s.gauges.count("net.dts.phase.simulate_s"));
}

TEST(DtsNetwork, MetricsDoNotPerturbTheRun) {
  DtsNetworkConfig cfg = small_config(1.0);
  const auto plain = run_dts_network(cfg);
  sinet::obs::MetricsRegistry reg;
  cfg.metrics = &reg;
  const auto instrumented = run_dts_network(cfg);
  ASSERT_EQ(plain.uplinks.size(), instrumented.uplinks.size());
  EXPECT_EQ(plain.counters.uplink_attempts,
            instrumented.counters.uplink_attempts);
  EXPECT_EQ(plain.counters.uplinks_received,
            instrumented.counters.uplinks_received);
  for (std::size_t i = 0; i < plain.uplinks.size(); ++i)
    EXPECT_EQ(plain.uplinks[i].delivered, instrumented.uplinks[i].delivered);
}

}  // namespace

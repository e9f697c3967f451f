// Population-scale DtS engine tests.
//
// The centerpiece is the randomized parity suite: below the trace
// threshold the batched engine must reproduce the legacy per-node-event
// engine's DtsNetworkResult bit for bit — same uplink records, same
// counters, same residency — across a wide sweep of seeded
// configurations. The rest are the scale-bug sweep regressions: 64-bit
// index widths, the busy_until sentinel, record growth under
// drop/ARQ interleaving, and aggregate-mode determinism with bounded
// memory gauges.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "energy/power_model.h"
#include "net/dts_batch.h"
#include "net/dts_network.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "trace/csv.h"

namespace {

using namespace sinet;
using namespace sinet::net;

// --- parity suite ----------------------------------------------------

/// Every ground antenna a node can carry.
constexpr channel::AntennaType kNodeAntennas[] = {
    channel::AntennaType::kQuarterWaveMonopole,
    channel::AntennaType::kFiveEighthsWaveMonopole,
    channel::AntennaType::kDipole,
    channel::AntennaType::kSatelliteTurnstile,
    channel::AntennaType::kIsotropic,
};

/// One randomized small-N configuration, derived deterministically from
/// the case index. Varies every knob that changes the draw sequence:
/// access scheme, ARQ budget, congestion, ADR, Doppler precompensation,
/// drop policy, buffer sizes, report cadence, sites, node antennas and
/// seed.
DtsNetworkConfig parity_case(std::size_t nodes, std::uint64_t case_id) {
  sim::Rng knobs(sim::derive_seed(case_id, "dts-parity-case"));
  const double duration_days = 0.15 + 0.05 * static_cast<double>(case_id % 4);
  DtsNetworkConfig cfg =
      tianqi_agriculture_config(core::campaign_epoch_jd(), duration_days);
  cfg.seed = 1000 + case_id;
  cfg.pass_scan_step_s = 60.0;

  const orbit::Geodetic farm{22.78, 100.98, 1.3};
  const orbit::Geodetic ridge{23.41, 101.52, 1.9};
  cfg.nodes.clear();
  for (std::size_t n = 0; n < nodes; ++n) {
    IotNodeConfig nc;
    nc.name = "P-node-" + std::to_string(n);
    nc.location = (case_id % 2 == 1 && n % 3 == 2) ? ridge : farm;
    nc.report_payload_bytes = 12 + static_cast<int>(knobs.uniform_int(0, 3)) * 8;
    nc.report_interval_s = 600.0 * static_cast<double>(knobs.uniform_int(1, 4));
    nc.max_retransmissions = static_cast<int>(knobs.uniform_int(0, 5));
    nc.buffer_capacity = static_cast<std::size_t>(knobs.uniform_int(1, 16));
    // Two cases in three mix receive antennas at a shared site, so one
    // location prepares several beacon links per slot. Derived from the
    // case id and node index, not from `knobs`, so every other knob keeps
    // its value.
    if (case_id % 3 != 1)
      nc.antenna = kNodeAntennas[(case_id + n) % std::size(kNodeAntennas)];
    cfg.nodes.push_back(nc);
  }

  cfg.uplink_access = knobs.chance(0.5) ? UplinkAccess::kScheduled
                                        : UplinkAccess::kSlottedAloha;
  cfg.congestion.enabled = knobs.chance(0.8);
  cfg.adaptive_sf = knobs.chance(0.3);
  cfg.doppler_precompensation = knobs.chance(0.3);
  cfg.satellite_drop_policy =
      knobs.chance(0.5) ? DropPolicy::kDropNewest : DropPolicy::kDropOldest;
  cfg.satellite_buffer_capacity =
      static_cast<std::size_t>(knobs.uniform_int(4, 64));
  cfg.downlink_packets_per_contact =
      knobs.chance(0.3) ? static_cast<std::size_t>(knobs.uniform_int(1, 8))
                        : 0;
  return cfg;
}

void expect_records_equal(const trace::UplinkRecord& a,
                          const trace::UplinkRecord& b, std::size_t i) {
  EXPECT_EQ(a.sequence, b.sequence) << "uplink " << i;
  EXPECT_EQ(a.node, b.node) << "uplink " << i;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << "uplink " << i;
  EXPECT_EQ(a.generated_unix_s, b.generated_unix_s) << "uplink " << i;
  EXPECT_EQ(a.first_tx_unix_s, b.first_tx_unix_s) << "uplink " << i;
  EXPECT_EQ(a.satellite_rx_unix_s, b.satellite_rx_unix_s) << "uplink " << i;
  EXPECT_EQ(a.server_rx_unix_s, b.server_rx_unix_s) << "uplink " << i;
  EXPECT_EQ(a.dts_attempts, b.dts_attempts) << "uplink " << i;
  EXPECT_EQ(a.max_concurrent_tx, b.max_concurrent_tx) << "uplink " << i;
  EXPECT_EQ(a.delivered, b.delivered) << "uplink " << i;
  EXPECT_EQ(a.via_satellite, b.via_satellite) << "uplink " << i;
}

void expect_results_equal(const DtsNetworkResult& legacy,
                          const DtsNetworkResult& batched,
                          std::uint64_t case_id) {
  SCOPED_TRACE("parity case " + std::to_string(case_id));
  ASSERT_EQ(legacy.uplinks.size(), batched.uplinks.size());
  for (std::size_t i = 0; i < legacy.uplinks.size(); ++i) {
    expect_records_equal(legacy.uplinks[i], batched.uplinks[i], i);
    if (testing::Test::HasFailure()) break;  // one divergence is enough
  }

  EXPECT_EQ(legacy.counters.beacons_sent, batched.counters.beacons_sent);
  EXPECT_EQ(legacy.counters.beacons_heard, batched.counters.beacons_heard);
  EXPECT_EQ(legacy.counters.uplink_attempts,
            batched.counters.uplink_attempts);
  EXPECT_EQ(legacy.counters.uplinks_received,
            batched.counters.uplinks_received);
  EXPECT_EQ(legacy.counters.uplinks_collided,
            batched.counters.uplinks_collided);
  EXPECT_EQ(legacy.counters.acks_sent, batched.counters.acks_sent);
  EXPECT_EQ(legacy.counters.acks_received, batched.counters.acks_received);
  EXPECT_EQ(legacy.counters.duplicate_uplinks,
            batched.counters.duplicate_uplinks);
  EXPECT_EQ(legacy.counters.satellite_buffer_drops,
            batched.counters.satellite_buffer_drops);
  EXPECT_EQ(legacy.counters.background_losses,
            batched.counters.background_losses);

  ASSERT_EQ(legacy.node_residency.size(), batched.node_residency.size());
  for (std::size_t n = 0; n < legacy.node_residency.size(); ++n)
    for (int m = 0; m < energy::kModeCount; ++m)
      EXPECT_EQ(legacy.node_residency[n].seconds_in(
                    static_cast<energy::Mode>(m)),
                batched.node_residency[n].seconds_in(
                    static_cast<energy::Mode>(m)))
          << "node " << n << " mode " << m;

  EXPECT_EQ(legacy.agg.reports_generated, batched.agg.reports_generated);
  EXPECT_EQ(legacy.agg.reports_delivered, batched.agg.reports_delivered);
  EXPECT_EQ(legacy.agg.eligible_generated, batched.agg.eligible_generated);
  EXPECT_EQ(legacy.agg.eligible_delivered, batched.agg.eligible_delivered);
  EXPECT_EQ(legacy.agg.local_buffer_drops, batched.agg.local_buffer_drops);
  EXPECT_EQ(legacy.agg.packets_abandoned, batched.agg.packets_abandoned);
  EXPECT_EQ(legacy.agg.sum_end_to_end_s, batched.agg.sum_end_to_end_s);
  EXPECT_EQ(legacy.agg.sum_wait_s, batched.agg.sum_wait_s);
  EXPECT_EQ(legacy.agg.wait_samples, batched.agg.wait_samples);
}

void run_parity_cases(std::size_t nodes, std::uint64_t first_case,
                      std::uint64_t count) {
  for (std::uint64_t c = first_case; c < first_case + count; ++c) {
    DtsNetworkConfig cfg = parity_case(nodes, c);
    cfg.engine = DtsEngine::kLegacy;
    const DtsNetworkResult legacy = run_dts_network(cfg);
    cfg.engine = DtsEngine::kBatched;
    const DtsNetworkResult batched = run_dts_network(cfg);
    expect_results_equal(legacy, batched, c);
    if (testing::Test::HasFailure()) return;
  }
}

// 56 seeded configurations across four population sizes (the suite is
// split so no single test monopolizes the timeout budget).
TEST(DtsEngineParity, SingleNodeConfigs) { run_parity_cases(1, 0, 14); }
TEST(DtsEngineParity, ThreeNodeConfigs) { run_parity_cases(3, 100, 14); }
TEST(DtsEngineParity, TwelveNodeConfigs) { run_parity_cases(12, 200, 14); }
TEST(DtsEngineParity, SixtyFourNodeConfigs) { run_parity_cases(64, 300, 14); }

TEST(DtsEngineParity, FleetConfigMatchesExplicitNodeList) {
  // A fleet prototype must behave exactly like the equivalent explicit
  // node list, on both engines.
  DtsNetworkConfig base =
      tianqi_agriculture_config(core::campaign_epoch_jd(), 0.2);
  base.nodes.clear();
  base.fleet.count = 10;
  base.fleet.sites = {orbit::Geodetic{22.78, 100.98, 1.3},
                      orbit::Geodetic{23.41, 101.52, 1.9}};
  base.fleet.prototype.name = "fleet";
  base.fleet.prototype.report_interval_s = 900.0;
  base.fleet.prototype.max_retransmissions = 3;

  DtsNetworkConfig listed = base;
  listed.fleet = NodeFleet{};
  for (std::size_t n = 0; n < 10; ++n)
    listed.nodes.push_back(detail::dts_node_config(base, n));

  base.engine = DtsEngine::kBatched;
  listed.engine = DtsEngine::kLegacy;
  expect_results_equal(run_dts_network(listed), run_dts_network(base), 9999);
}

// --- scale-bug sweep regressions -------------------------------------

TEST(DtsScaleBugs, PacketIndexFieldsAreSixtyFourBit) {
  // A mega-fleet node index overflows int; these fields must hold the
  // full range without truncation or sign flips.
  AppPacket pkt;
  pkt.node_index = 5'000'000'000LL;
  EXPECT_EQ(pkt.node_index, 5'000'000'000LL);
  StoredPacket sp;
  sp.satellite_index = 4'000'000'000LL;
  EXPECT_EQ(sp.satellite_index, 4'000'000'000LL);
  static_assert(sizeof(pkt.node_index) == 8,
                "node_index must be 64-bit for population-scale fleets");
  static_assert(sizeof(sp.satellite_index) == 8,
                "satellite_index must be 64-bit");
}

TEST(DtsScaleBugs, CsvSequenceSurvivesBeyondDoublePrecision) {
  // Sequences above 2^53 collide when parsed through a double; the CSV
  // reader must round-trip them exactly (fails with the old
  // to_double-based parse, which lands on the nearest even integer).
  const std::uint64_t seq = (1ull << 53) + 3;
  trace::UplinkRecord rec;
  rec.sequence = seq;
  rec.node = "n";
  rec.via_satellite = "s";
  std::stringstream ss;
  trace::write_uplink_csv(ss, {rec});
  const auto back = trace::read_uplink_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].sequence, seq);
}

TEST(DtsScaleBugs, FreshNodeIsNotBusyAtTimeZero) {
  // The busy test is strict (now < busy_until): a node that has never
  // transmitted must be free to answer a beacon at sim time 0. The old
  // -1.0 magic sentinel satisfied this too; the replacement 0.0 pins the
  // same behavior without implying negative times are meaningful.
  IotNodeState node{IotNodeConfig{}};
  EXPECT_EQ(node.busy_until, 0.0);
  EXPECT_FALSE(0.0 < node.busy_until) << "node busy at t=0 without ever "
                                         "transmitting";
}

TEST(DtsScaleBugs, TinyBufferArqInterleavingStaysConsistent) {
  // buffer_capacity=1 with a fast report cadence forces constant local
  // drops interleaved with ARQ retransmissions — the pattern that opens
  // gaps in the per-node sequence runs. Both engines must agree exactly
  // and account every report as delivered, abandoned, dropped or
  // still pending.
  DtsNetworkConfig cfg =
      tianqi_agriculture_config(core::campaign_epoch_jd(), 0.3);
  cfg.seed = 77;
  for (auto& nc : cfg.nodes) {
    nc.buffer_capacity = 1;
    nc.report_interval_s = 300.0;
    nc.max_retransmissions = 3;
  }
  cfg.engine = DtsEngine::kLegacy;
  const DtsNetworkResult legacy = run_dts_network(cfg);
  cfg.engine = DtsEngine::kBatched;
  const DtsNetworkResult batched = run_dts_network(cfg);
  expect_results_equal(legacy, batched, 7777);
  EXPECT_GT(batched.agg.local_buffer_drops, 0u)
      << "case too mild to exercise buffer-overflow gaps";
  EXPECT_GT(batched.agg.reports_generated, 0u);
}

// --- aggregate (population) mode -------------------------------------

DtsNetworkConfig aggregate_config() {
  DtsNetworkConfig cfg = scale_fleet_config(
      2000, 22, 16, core::campaign_epoch_jd(), /*duration_days=*/0.1);
  // Paper constellation instead of the synthetic shell: its windows are
  // already in the global cache from the other tests, keeping this fast.
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.trace_node_threshold = 64;  // force aggregate mode
  // Off the report grid (multiples of 60 s), so no report lands exactly
  // on the eligibility boundary where ulp-level rounding differences
  // between the engines' time representations could flip the count.
  cfg.aggregate_tail_exclusion_s = 3601.5;
  return cfg;
}

TEST(DtsAggregateMode, DeterministicAcrossRuns) {
  const DtsNetworkConfig cfg = aggregate_config();
  const DtsNetworkResult a = run_dts_network(cfg);
  const DtsNetworkResult b = run_dts_network(cfg);
  EXPECT_TRUE(a.uplinks.empty()) << "aggregate mode must not keep traces";
  EXPECT_TRUE(a.node_residency.empty());
  EXPECT_GT(a.agg.reports_generated, 0u);
  EXPECT_EQ(a.agg.reports_generated, b.agg.reports_generated);
  EXPECT_EQ(a.agg.reports_delivered, b.agg.reports_delivered);
  EXPECT_EQ(a.agg.eligible_generated, b.agg.eligible_generated);
  EXPECT_EQ(a.agg.eligible_delivered, b.agg.eligible_delivered);
  EXPECT_EQ(a.agg.local_buffer_drops, b.agg.local_buffer_drops);
  EXPECT_EQ(a.agg.packets_abandoned, b.agg.packets_abandoned);
  EXPECT_EQ(a.agg.sum_end_to_end_s, b.agg.sum_end_to_end_s);
  EXPECT_EQ(a.agg.sum_wait_s, b.agg.sum_wait_s);
  EXPECT_EQ(a.counters.beacons_sent, b.counters.beacons_sent);
  EXPECT_EQ(a.counters.uplink_attempts, b.counters.uplink_attempts);
}

TEST(DtsAggregateMode, PublishesBoundedMemoryGauges) {
  DtsNetworkConfig cfg = aggregate_config();
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const DtsNetworkResult res = run_dts_network(cfg);
  const auto s = metrics.snapshot();
  ASSERT_TRUE(s.gauges.count("net.dts.scale.nodes"));
  EXPECT_EQ(s.gauges.at("net.dts.scale.nodes").value, 2000.0);
  ASSERT_TRUE(s.gauges.count("net.dts.scale.node_store_bytes"));
  // SoA store: tens of bytes per node, never the kilobytes a deque +
  // string + tracker per node would cost.
  EXPECT_GT(s.gauges.at("net.dts.scale.node_store_bytes").value, 0.0);
  EXPECT_LT(s.gauges.at("net.dts.scale.node_store_bytes").value,
            2000.0 * 256.0);
  ASSERT_TRUE(s.gauges.count("net.dts.scale.records_bytes"));
  EXPECT_EQ(s.gauges.at("net.dts.scale.records_bytes").value, 0.0)
      << "aggregate mode must not allocate per-packet records";
  // The sharded engine has no event queue at all — timelines are plain
  // arrays walked by the conflict schedule.
  EXPECT_FALSE(s.gauges.count("sim.event_queue.max_pending"));
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.threads"));
  EXPECT_GE(s.gauges.at("net.dts.parallel.threads").value, 1.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.slices"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.slices").value, 0.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.shards"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.shards").value, 0.0);
  EXPECT_GT(res.agg.reports_generated, 0u);
}

TEST(DtsAggregateMode, MatchesExactEngineOnAggregateStatistics) {
  // Aggregate mode draws a different (smaller) RNG stream, so it cannot
  // be bit-identical — but on an identical scenario its aggregate rates
  // must land close to the exact engine's.
  DtsNetworkConfig cfg = aggregate_config();
  cfg.fleet.count = 200;  // small enough to afford the exact run
  DtsNetworkConfig exact_cfg = cfg;
  exact_cfg.trace_node_threshold = 4096;  // exact mode
  const DtsNetworkResult agg_run = run_dts_network(cfg);
  const DtsNetworkResult exact_run = run_dts_network(exact_cfg);
  ASSERT_GT(exact_run.agg.reports_generated, 0u);
  EXPECT_EQ(agg_run.agg.reports_generated,
            exact_run.agg.reports_generated);
  EXPECT_EQ(agg_run.agg.eligible_generated,
            exact_run.agg.eligible_generated);
  if (exact_run.agg.reports_delivered > 0) {
    EXPECT_NEAR(agg_run.agg.delivered_fraction(),
                exact_run.agg.delivered_fraction(), 0.15);
  }
}

}  // namespace

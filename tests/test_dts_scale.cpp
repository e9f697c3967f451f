// Population-scale DtS engine tests.
//
// The centerpiece is the trace oracle: on a traced fleet, aggregates
// recomputed from the per-packet records must equal the streamed
// DtsAggregates, so the trace sink and the aggregates count the same
// packets. The rest are single-engine consistency checks (a fleet equals
// its explicit node list; tiny-buffer ARQ interleaving), the scale-bug
// sweep regressions (64-bit index widths, CSV sequence formatting) and the
// untraced mode above kTraceNodeLimit: determinism with bounded memory
// gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "dts_result_expect.h"
#include "energy/power_model.h"
#include "net/dts_network.h"
#include "obs/metrics.h"
#include "orbit/time.h"
#include "trace/csv.h"

namespace {

using namespace sinet;
using namespace sinet::net;
using net::test::expect_histograms_equal;
using net::test::expect_results_identical;

// --- trace oracle ------------------------------------------------------

/// Aggregates recomputed from a per-packet trace: the oracle for the
/// engine's streamed DtsAggregates. Leaves local drops, abandonments and
/// residency alone: no record carries them.
void aggregate_from_uplinks(const std::vector<trace::UplinkRecord>& uplinks,
                            double run_end_unix_s, double tail_exclusion_s,
                            DtsAggregates& agg) {
  const double eligible_before = run_end_unix_s - tail_exclusion_s;
  for (const trace::UplinkRecord& u : uplinks) {
    ++agg.reports_generated;
    const bool eligible = u.generated_unix_s <= eligible_before;
    if (eligible) ++agg.eligible_generated;
    if (u.first_tx_unix_s >= 0.0) {
      const double w = u.first_tx_unix_s - u.generated_unix_s;
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
    }
    if (u.dts_attempts > 0)
      agg.attempts.add(static_cast<double>(u.dts_attempts));
    if (!u.delivered) continue;
    ++agg.reports_delivered;
    if (eligible) ++agg.eligible_delivered;
    const double e2e = u.end_to_end_s();
    agg.sum_end_to_end_s += e2e;
    agg.latency_s.add(e2e);
    if (u.first_tx_unix_s >= 0.0 && u.satellite_rx_unix_s >= 0.0) {
      agg.sum_dts_transfer_s += u.dts_transfer_s();
      agg.sum_delivery_s += u.delivery_s();
      ++agg.breakdown_samples;
    }
  }
}

/// Relative 1e-9 agreement: the trace holds Unix times, the engine sums
/// sim times, so a sum may differ from the oracle's in its last bits.
void expect_sum_near(double oracle, double streamed, const char* name) {
  EXPECT_NEAR(oracle, streamed, 1e-9 * std::max(std::abs(streamed), 1.0))
      << name;
}

TEST(DtsTraceOracle, StreamedAggregatesMatchTheTrace) {
  // ALOHA with footprint congestion, ARQ (5 retransmissions) and a
  // two-report node buffer under a 10-minute cadence: collisions,
  // retransmissions, duplicate uplinks and local drops all reach the
  // trace.
  DtsNetworkConfig cfg = scale_fleet_config(
      300, 22, 16, core::campaign_epoch_jd(), /*duration_days=*/0.3);
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink_access = UplinkAccess::kSlottedAloha;
  cfg.fleet.prototype.report_interval_s = 600.0;
  cfg.fleet.prototype.buffer_capacity = 2;
  const DtsNetworkResult res = run_dts_network(cfg);

  ASSERT_EQ(res.uplinks.size(), res.agg.reports_generated);
  ASSERT_EQ(res.node_residency.size(), cfg.fleet.count);
  ASSERT_GT(res.agg.local_buffer_drops, 0u) << "no local drops exercised";
  ASSERT_GT(res.counters.duplicate_uplinks, 0u) << "no ARQ exercised";
  ASSERT_GT(res.counters.uplinks_collided, 0u) << "no collisions exercised";

  DtsAggregates oracle;
  aggregate_from_uplinks(
      res.uplinks,
      orbit::julian_to_unix(cfg.start_jd) + cfg.duration_days * 86400.0,
      detail::effective_tail_exclusion_s(cfg), oracle);
  EXPECT_EQ(oracle.reports_generated, res.agg.reports_generated);
  EXPECT_EQ(oracle.reports_delivered, res.agg.reports_delivered);
  EXPECT_EQ(oracle.eligible_generated, res.agg.eligible_generated);
  EXPECT_EQ(oracle.eligible_delivered, res.agg.eligible_delivered);
  EXPECT_EQ(oracle.wait_samples, res.agg.wait_samples);
  EXPECT_EQ(oracle.breakdown_samples, res.agg.breakdown_samples);
  expect_histograms_equal(oracle.latency_s, res.agg.latency_s, "latency_s");
  expect_histograms_equal(oracle.wait_s, res.agg.wait_s, "wait_s");
  expect_histograms_equal(oracle.attempts, res.agg.attempts, "attempts");
  expect_sum_near(oracle.sum_end_to_end_s, res.agg.sum_end_to_end_s,
                  "sum_end_to_end_s");
  expect_sum_near(oracle.sum_wait_s, res.agg.sum_wait_s, "sum_wait_s");
  expect_sum_near(oracle.sum_dts_transfer_s, res.agg.sum_dts_transfer_s,
                  "sum_dts_transfer_s");
  expect_sum_near(oracle.sum_delivery_s, res.agg.sum_delivery_s,
                  "sum_delivery_s");

  // Per-node residency sums to the fleet's.
  for (int m = 0; m < energy::kModeCount; ++m) {
    const auto mode = static_cast<energy::Mode>(m);
    double sum = 0.0;
    for (const energy::ResidencyTracker& t : res.node_residency)
      sum += t.seconds_in(mode);
    expect_sum_near(sum, res.agg.fleet_residency.seconds_in(mode),
                    "residency");
  }
}

// --- single-engine consistency ----------------------------------------

TEST(DtsFleet, MatchesExplicitNodeList) {
  // A fleet prototype must behave exactly like the equivalent explicit
  // node list.
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

  const DtsNetworkResult fleet = run_dts_network(base);
  ASSERT_FALSE(fleet.uplinks.empty());
  expect_results_identical(fleet, run_dts_network(listed));
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
  // Sequences above 2^53 collide when formatted through a double; the CSV
  // writer must print them exactly (through a double, 2^53 + 3 prints as
  // ...996).
  trace::UplinkRecord rec;
  rec.sequence = (1ull << 53) + 3;
  rec.node = "n";
  rec.via_satellite = "s";
  std::stringstream ss;
  trace::write_uplink_csv(ss, {rec});
  std::string header, row;
  std::getline(ss, header);
  std::getline(ss, row);
  EXPECT_EQ(trace::csv_split(row).at(0), "9007199254740995");
}

TEST(DtsScaleBugs, TinyBufferArqInterleavingStaysConsistent) {
  // buffer_capacity=1 with a fast report cadence forces constant local
  // drops interleaved with ARQ retransmissions — the pattern that opens
  // gaps in the per-node sequence runs. The run must stay
  // thread-invariant, keep one record per report and never spend more
  // than the ARQ budget on one report.
  DtsNetworkConfig cfg =
      tianqi_agriculture_config(core::campaign_epoch_jd(), 0.3);
  cfg.seed = 77;
  constexpr int kMaxRetx = 3;
  for (auto& nc : cfg.nodes) {
    nc.buffer_capacity = 1;
    nc.report_interval_s = 300.0;
    nc.max_retransmissions = kMaxRetx;
  }
  cfg.sim_threads = 1;
  const DtsNetworkResult serial = run_dts_network(cfg);
  for (const unsigned threads : {4u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.sim_threads = threads;
    expect_results_identical(serial, run_dts_network(cfg));
  }
  EXPECT_GT(serial.agg.local_buffer_drops, 0u)
      << "case too mild to exercise buffer-overflow gaps";
  ASSERT_GT(serial.agg.reports_generated, 0u);
  ASSERT_EQ(serial.uplinks.size(), serial.agg.reports_generated);
  int most_attempts = 0;
  for (const trace::UplinkRecord& u : serial.uplinks) {
    EXPECT_LE(u.dts_attempts, kMaxRetx + 1) << u.node << " #" << u.sequence;
    most_attempts = std::max(most_attempts, u.dts_attempts);
  }
  EXPECT_GT(most_attempts, 1) << "case too mild to exercise ARQ";
}

// --- untraced (population) mode --------------------------------------

DtsNetworkConfig aggregate_config(std::size_t nodes = 5000) {
  DtsNetworkConfig cfg = scale_fleet_config(
      nodes, 22, 16, core::campaign_epoch_jd(), /*duration_days=*/0.05);
  // Paper constellation instead of the synthetic shell: its windows are
  // already in the global cache from the other tests, keeping this fast.
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  return cfg;
}

static_assert(5000 > kTraceNodeLimit, "aggregate_config must be untraced");

TEST(DtsAggregateMode, DeterministicAcrossRuns) {
  const DtsNetworkConfig cfg = aggregate_config();
  const DtsNetworkResult a = run_dts_network(cfg);
  const DtsNetworkResult b = run_dts_network(cfg);
  EXPECT_TRUE(a.uplinks.empty()) << "untraced fleets must not keep traces";
  EXPECT_TRUE(a.node_residency.empty());
  EXPECT_GT(a.agg.reports_generated, 0u);
  expect_results_identical(a, b);
}

TEST(DtsAggregateMode, TraceNodeLimitIsInclusive) {
  DtsNetworkConfig cfg = aggregate_config(kTraceNodeLimit);
  cfg.duration_days = 0.02;
  const DtsNetworkResult at_limit = run_dts_network(cfg);
  ASSERT_GT(at_limit.agg.reports_generated, 0u);
  EXPECT_EQ(at_limit.uplinks.size(), at_limit.agg.reports_generated);
  EXPECT_EQ(at_limit.node_residency.size(), kTraceNodeLimit);
  cfg.fleet.count = kTraceNodeLimit + 1;
  const DtsNetworkResult above = run_dts_network(cfg);
  EXPECT_GT(above.agg.reports_generated, 0u);
  EXPECT_TRUE(above.uplinks.empty());
  EXPECT_TRUE(above.node_residency.empty());
}

TEST(DtsAggregateMode, PublishesBoundedMemoryGauges) {
  DtsNetworkConfig cfg = aggregate_config();
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const DtsNetworkResult res = run_dts_network(cfg);
  const auto s = metrics.snapshot();
  ASSERT_TRUE(s.gauges.count("net.dts.scale.nodes"));
  EXPECT_EQ(s.gauges.at("net.dts.scale.nodes").value, 5000.0);
  ASSERT_TRUE(s.gauges.count("net.dts.scale.node_store_bytes"));
  // SoA store: tens of bytes per node, never the kilobytes a deque +
  // string + tracker per node would cost.
  EXPECT_GT(s.gauges.at("net.dts.scale.node_store_bytes").value, 0.0);
  EXPECT_LT(s.gauges.at("net.dts.scale.node_store_bytes").value,
            5000.0 * 256.0);
  ASSERT_TRUE(s.gauges.count("net.dts.scale.records_bytes"));
  EXPECT_EQ(s.gauges.at("net.dts.scale.records_bytes").value, 0.0)
      << "untraced fleets must not allocate per-packet records";
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.threads"));
  EXPECT_GE(s.gauges.at("net.dts.parallel.threads").value, 1.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.slices"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.slices").value, 0.0);
  ASSERT_TRUE(s.gauges.count("net.dts.parallel.shards"));
  EXPECT_GT(s.gauges.at("net.dts.parallel.shards").value, 0.0);
  EXPECT_GT(res.agg.reports_generated, 0u);
}

}  // namespace

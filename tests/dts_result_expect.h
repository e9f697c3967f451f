// EXPECT_EQ on every field of two DtS results: each trace record, each
// node's residency, every counter, every aggregate (double sums bit for
// bit), every histogram bin and every fleet residency mode. Shared by the
// DtS engine test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "energy/power_model.h"
#include "net/dts_network.h"
#include "stats/histogram.h"
#include "trace/packet_trace.h"

namespace sinet::net::test {

inline void expect_histograms_equal(const stats::Histogram& a,
                                    const stats::Histogram& b,
                                    const char* name) {
  SCOPED_TRACE(name);
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i)
    EXPECT_EQ(a.count(i), b.count(i)) << "bin " << i;
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.nan(), b.nan());
  EXPECT_EQ(a.total(), b.total());
}

inline void expect_records_equal(const trace::UplinkRecord& a,
                                 const trace::UplinkRecord& b,
                                 std::size_t i) {
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

inline void expect_results_identical(const DtsNetworkResult& a,
                                     const DtsNetworkResult& b) {
  ASSERT_EQ(a.uplinks.size(), b.uplinks.size());
  for (std::size_t i = 0; i < a.uplinks.size(); ++i) {
    expect_records_equal(a.uplinks[i], b.uplinks[i], i);
    if (::testing::Test::HasFailure()) break;  // one divergence is enough
  }
  ASSERT_EQ(a.node_residency.size(), b.node_residency.size());
  for (std::size_t n = 0; n < a.node_residency.size(); ++n)
    for (int m = 0; m < energy::kModeCount; ++m)
      EXPECT_EQ(a.node_residency[n].seconds_in(static_cast<energy::Mode>(m)),
                b.node_residency[n].seconds_in(static_cast<energy::Mode>(m)))
          << "node " << n << " mode " << m;

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

}  // namespace sinet::net::test

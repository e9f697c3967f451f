// DtS optimization features the paper's conclusion calls for:
// scheduled MAC (CosMAC-style), Doppler pre-compensation, adaptive SF,
// and satellite buffer drop policies.
#include <gtest/gtest.h>

#include "core/active_experiment.h"
#include "core/scenario.h"
#include "net/dts_network.h"
#include "net/mac.h"
#include "net/satellite.h"
#include "phy/lora.h"

namespace {

using namespace sinet;
using namespace sinet::net;

DtsNetworkConfig base_config(double days = 1.5) {
  DtsNetworkConfig cfg = tianqi_agriculture_config(
      sinet::core::campaign_epoch_jd(), days);
  return cfg;
}

TEST(Subslots, NonOverlappingWithinPeriod) {
  const auto offsets = assign_subslots(3, 0.4, 30.0, 0.2, 0.3);
  ASSERT_EQ(offsets.size(), 3u);
  for (std::size_t i = 1; i < offsets.size(); ++i)
    EXPECT_GE(offsets[i] - offsets[i - 1], 0.4 + 0.2 - 1e-9);
  for (const double o : offsets) {
    EXPECT_GE(o, 0.3);
    EXPECT_LE(o + 0.4, 30.0);
  }
}

TEST(Subslots, OversubscriptionCycles) {
  // A 2-second period fits three 0.4 s slots (0.2, 0.7, 1.2 — the next
  // would end at 2.1 > 2.0); extra responders reuse them cyclically.
  const auto offsets = assign_subslots(10, 0.4, 2.0, 0.1, 0.2);
  ASSERT_EQ(offsets.size(), 10u);
  EXPECT_DOUBLE_EQ(offsets[0], offsets[3]);  // slots_per_period == 3
  for (const double o : offsets) EXPECT_LE(o + 0.4, 2.0 + 1e-9);
}

TEST(Subslots, InvalidArgumentsThrow) {
  EXPECT_THROW(assign_subslots(3, 0.0, 30.0), std::invalid_argument);
  EXPECT_THROW(assign_subslots(3, 0.4, 0.0), std::invalid_argument);
  EXPECT_THROW(assign_subslots(3, 0.4, 30.0, -1.0), std::invalid_argument);
}

TEST(ScheduledMac, EliminatesIntraFootprintCollisions) {
  DtsNetworkConfig aloha = base_config();
  DtsNetworkConfig sched = base_config();
  sched.uplink_access = UplinkAccess::kScheduled;
  const auto a = run_dts_network(aloha);
  const auto s = run_dts_network(sched);
  // Scheduled access cannot produce self-collisions among the three
  // nodes, and the coordinated footprint suppresses background losses.
  EXPECT_LT(s.counters.uplinks_collided, a.counters.uplinks_collided + 1);
  EXPECT_LE(s.counters.background_losses, a.counters.background_losses);
}

TEST(ScheduledMac, DoesNotHurtReliability) {
  DtsNetworkConfig aloha = base_config();
  DtsNetworkConfig sched = base_config();
  sched.uplink_access = UplinkAccess::kScheduled;
  const double rel_aloha = run_dts_network(aloha).delivered_fraction();
  const double rel_sched = run_dts_network(sched).delivered_fraction();
  EXPECT_GE(rel_sched, rel_aloha - 0.05);
}

TEST(DopplerPrecompensation, ReducesResidualShift) {
  DtsNetworkConfig cfg = base_config();
  cfg.doppler_precompensation = true;
  cfg.precompensation_residual = 0.05;
  // Behavioral check: run completes and uplink success does not degrade.
  DtsNetworkConfig plain = base_config();
  const auto comp = run_dts_network(cfg);
  const auto base = run_dts_network(plain);
  const double succ_comp =
      static_cast<double>(comp.counters.uplinks_received) /
      static_cast<double>(comp.counters.uplink_attempts);
  const double succ_base =
      static_cast<double>(base.counters.uplinks_received) /
      static_cast<double>(base.counters.uplink_attempts);
  EXPECT_GE(succ_comp, succ_base - 0.03);
}

TEST(AdaptiveSf, ChooserPicksFastestSafeSf) {
  using phy::SpreadingFactor;
  // Plenty of SNR: fastest SF.
  EXPECT_EQ(phy::choose_spreading_factor(10.0), SpreadingFactor::kSf7);
  // -7.5 threshold + 3 safety: SF7 needs -4.5.
  EXPECT_EQ(phy::choose_spreading_factor(-4.5), SpreadingFactor::kSf7);
  EXPECT_EQ(phy::choose_spreading_factor(-5.0), SpreadingFactor::kSf8);
  EXPECT_EQ(phy::choose_spreading_factor(-12.0), SpreadingFactor::kSf10);
  // Hopeless link: most robust SF.
  EXPECT_EQ(phy::choose_spreading_factor(-30.0), SpreadingFactor::kSf12);
}

TEST(AdaptiveSf, CutsAirtimeWithoutLosingPackets) {
  DtsNetworkConfig fixed = base_config();
  DtsNetworkConfig adr = base_config();
  adr.adaptive_sf = true;
  const auto f = run_dts_network(fixed);
  const auto a = run_dts_network(adr);
  // Total node airtime should drop (faster SFs on good links).
  double tx_fixed = 0.0, tx_adr = 0.0;
  for (const auto& r : f.node_residency)
    tx_fixed += r.seconds_in(energy::Mode::kTx);
  for (const auto& r : a.node_residency)
    tx_adr += r.seconds_in(energy::Mode::kTx);
  EXPECT_LT(tx_adr, tx_fixed);
  EXPECT_GE(a.delivered_fraction(), f.delivered_fraction() - 0.08);
}

TEST(DropPolicy, OldestEvictionAdmitsFreshPackets) {
  StoreAndForwardBuffer buf(2, DropPolicy::kDropOldest);
  for (std::uint64_t i = 0; i < 4; ++i) {
    StoredPacket p;
    p.packet.sequence = i;
    EXPECT_TRUE(buf.store(std::move(p)));
  }
  EXPECT_EQ(buf.drop_count(), 2u);
  const auto out = buf.flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].packet.sequence, 2u);  // oldest two were evicted
  EXPECT_EQ(out[1].packet.sequence, 3u);
}

TEST(DropPolicy, ConfigurableOnSatellites) {
  DtsNetworkConfig cfg = base_config();
  cfg.satellite_drop_policy = DropPolicy::kDropOldest;
  cfg.satellite_buffer_capacity = 4;  // force pressure
  const auto res = run_dts_network(cfg);
  // Run completes; drops may occur but the sim stays consistent.
  EXPECT_GT(res.uplinks.size(), 0u);
}

TEST(DownlinkCapacity, RateLimitDelaysDelivery) {
  DtsNetworkConfig unlimited = base_config();
  DtsNetworkConfig limited = base_config();
  limited.downlink_packets_per_contact = 1;  // drip-feed downlink
  const auto u = run_dts_network(unlimited);
  const auto l = run_dts_network(limited);
  // Packets still (mostly) arrive, but the drained backlog takes more
  // ground-station contacts: mean delivery segment grows.
  const auto bu = core::summarize_latency(u).mean_breakdown;
  const auto bl = core::summarize_latency(l).mean_breakdown;
  EXPECT_GT(bl.delivery_s, bu.delivery_s);
}

TEST(AllOptimizationsTogether, ImproveOrMatchBaseline) {
  DtsNetworkConfig best = base_config();
  best.uplink_access = UplinkAccess::kScheduled;
  best.doppler_precompensation = true;
  best.adaptive_sf = true;
  const auto optimized = run_dts_network(best);
  const auto baseline = run_dts_network(base_config());
  EXPECT_GE(optimized.delivered_fraction(),
            baseline.delivered_fraction() - 0.05);
}

}  // namespace

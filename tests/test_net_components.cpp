// Store-and-forward buffer, ground-station catalog, backhaul model.
#include <gtest/gtest.h>

#include "net/backhaul.h"
#include "net/ground_station.h"
#include "net/satellite.h"
#include "orbit/tle.h"
#include "sim/rng.h"

namespace {

using namespace sinet::net;

StoredPacket pkt(std::uint64_t seq) {
  StoredPacket p;
  p.packet.sequence = seq;
  p.packet.node_index = 0;
  return p;
}

TEST(SfBuffer, FifoStoreAndFlush) {
  StoreAndForwardBuffer buf(8);
  EXPECT_TRUE(buf.store(pkt(1)));
  EXPECT_TRUE(buf.store(pkt(2)));
  EXPECT_EQ(buf.size(), 2u);
  const auto out = buf.flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].packet.sequence, 1u);
  EXPECT_EQ(out[1].packet.sequence, 2u);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(SfBuffer, OverflowDropsAndCounts) {
  StoreAndForwardBuffer buf(2);
  EXPECT_TRUE(buf.store(pkt(1)));
  EXPECT_TRUE(buf.store(pkt(2)));
  EXPECT_TRUE(buf.full());
  EXPECT_FALSE(buf.store(pkt(3)));
  EXPECT_EQ(buf.drop_count(), 1u);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(SfBuffer, PeakOccupancyTracksHighWater) {
  StoreAndForwardBuffer buf(10);
  buf.store(pkt(1));
  buf.store(pkt(2));
  buf.store(pkt(3));
  (void)buf.flush();
  buf.store(pkt(4));
  EXPECT_EQ(buf.peak_occupancy(), 3u);
}

TEST(SfBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(StoreAndForwardBuffer{0}, std::invalid_argument);
}

TEST(Satellite, ConstructsFromTle) {
  sinet::orbit::KeplerianElements kep;
  kep.altitude_km = 860.0;
  kep.inclination_deg = 49.97;
  const auto tle = sinet::orbit::make_tle(
      "TQ-01", 51001, kep, sinet::orbit::julian_from_civil(2025, 3, 1));
  Satellite sat("TQ-01", "Tianqi", tle, 64);
  EXPECT_EQ(sat.name, "TQ-01");
  EXPECT_EQ(sat.constellation, "Tianqi");
  EXPECT_EQ(sat.buffer.capacity(), 64u);
  EXPECT_GT(sat.propagator.at(10.0).position_km.norm(), 6378.0);
}

TEST(GroundStations, TwelveStationsAllInChina) {
  const auto stations = tianqi_ground_stations();
  ASSERT_EQ(stations.size(), 12u);  // paper Sec 2.3
  for (const auto& gs : stations) {
    EXPECT_GE(gs.location.latitude_deg, 17.0) << gs.name;
    EXPECT_LE(gs.location.latitude_deg, 54.0) << gs.name;
    EXPECT_GE(gs.location.longitude_deg, 73.0) << gs.name;
    EXPECT_LE(gs.location.longitude_deg, 135.0) << gs.name;
    EXPECT_GT(gs.min_elevation_deg, 0.0);
  }
}

TEST(Backhaul, DelaysArePositiveWithMedianNearBase) {
  const BackhaulModel model(lte_backhaul());
  sinet::sim::Rng rng(9);
  std::vector<double> delays;
  for (int i = 0; i < 4000; ++i) {
    const double d = model.draw_delay_s(rng);
    EXPECT_GT(d, 0.0);
    delays.push_back(d);
  }
  std::sort(delays.begin(), delays.end());
  // Median = processing floor + the log-normal's median (= base delay).
  EXPECT_NEAR(delays[delays.size() / 2],
              lte_backhaul().processing_delay_s +
                  lte_backhaul().base_delay_s,
              0.1);
}

TEST(Backhaul, TianqiDeliveryHasProcessingFloor) {
  const BackhaulConfig cfg = tianqi_delivery_backhaul();
  const BackhaulModel model(cfg);
  sinet::sim::Rng rng(10);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(model.draw_delay_s(rng), cfg.processing_delay_s);
}

TEST(Backhaul, ConfigValidation) {
  BackhaulConfig bad;
  bad.base_delay_s = 0.0;
  EXPECT_THROW(BackhaulModel{bad}, std::invalid_argument);
  BackhaulConfig bad2;
  bad2.jitter_sigma_ln = -0.1;
  EXPECT_THROW(BackhaulModel{bad2}, std::invalid_argument);
  BackhaulConfig bad3;
  bad3.processing_delay_s = -1.0;
  EXPECT_THROW(BackhaulModel{bad3}, std::invalid_argument);
}

}  // namespace

// Trace records and CSV serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/csv.h"
#include "trace/packet_trace.h"

namespace {

using namespace sinet::trace;

BeaconRecord make_beacon(const std::string& station,
                         const std::string& constellation, double t) {
  BeaconRecord r;
  r.time_unix_s = t;
  r.station = station;
  r.constellation = constellation;
  r.satellite = constellation + "-01";
  r.rssi_dbm = -120.0;
  r.snr_db = -5.0;
  return r;
}

/// The one data row write_uplink_csv writes for `r`, split into fields.
std::vector<std::string> uplink_row(const UplinkRecord& r) {
  std::ostringstream os;
  write_uplink_csv(os, {r});
  std::istringstream is(os.str());
  std::string header, row;
  std::getline(is, header);
  std::getline(is, row);
  return csv_split(row);
}

TEST(BeaconTraceSet, AddAndClear) {
  BeaconTraceSet set;
  set.add(make_beacon("HK-1", "Tianqi", 1.0));
  set.add(make_beacon("HK-2", "FOSSA", 2.0));
  set.add(make_beacon("SYD-1", "Tianqi", 3.0));
  EXPECT_EQ(set.size(), 3u);
  set.clear();
  EXPECT_TRUE(set.empty());
}

TEST(UplinkRecord, TimingDecomposition) {
  UplinkRecord r;
  r.generated_unix_s = 100.0;
  r.first_tx_unix_s = 160.0;
  r.satellite_rx_unix_s = 170.0;
  r.server_rx_unix_s = 400.0;
  r.delivered = true;
  EXPECT_DOUBLE_EQ(r.wait_for_pass_s(), 60.0);
  EXPECT_DOUBLE_EQ(r.dts_transfer_s(), 10.0);
  EXPECT_DOUBLE_EQ(r.delivery_s(), 230.0);
  EXPECT_DOUBLE_EQ(r.end_to_end_s(), 300.0);
  // Decomposition sums to end-to-end.
  EXPECT_DOUBLE_EQ(
      r.wait_for_pass_s() + r.dts_transfer_s() + r.delivery_s(),
      r.end_to_end_s());
}

TEST(UplinkRecord, MissingStagesReportNegative) {
  UplinkRecord r;
  r.generated_unix_s = 100.0;
  EXPECT_LT(r.wait_for_pass_s(), 0.0);
  EXPECT_LT(r.dts_transfer_s(), 0.0);
  EXPECT_LT(r.delivery_s(), 0.0);
  EXPECT_LT(r.end_to_end_s(), 0.0);
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvWriter, BeaconHeaderAndRows) {
  std::ostringstream os;
  write_beacon_csv(os, {make_beacon("HK-1", "Tianqi", 1.5)});
  const std::string out = os.str();
  EXPECT_NE(out.find("time_unix_s,station,constellation"),
            std::string::npos);
  EXPECT_NE(out.find("HK-1,Tianqi,Tianqi-01"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(CsvWriter, UplinkRowContents) {
  UplinkRecord r;
  r.sequence = 7;
  r.node = "TQ-node-1";
  r.payload_bytes = 20;
  r.generated_unix_s = 1.0;
  r.dts_attempts = 3;
  r.delivered = true;
  r.via_satellite = "Tianqi-05";
  std::ostringstream os;
  write_uplink_csv(os, {r});
  const std::string out = os.str();
  EXPECT_NE(out.find("7,TQ-node-1,20,"), std::string::npos);
  EXPECT_NE(out.find("Tianqi-05"), std::string::npos);
  EXPECT_NE(out.find(",1,"), std::string::npos);  // delivered flag
}

TEST(CsvSplit, HandlesQuotedFields) {
  const auto f = csv_split("a,\"b,c\",\"say \"\"hi\"\"\",d");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b,c");
  EXPECT_EQ(f[2], "say \"hi\"");
  EXPECT_EQ(f[3], "d");
  EXPECT_EQ(csv_split("").size(), 1u);
  EXPECT_EQ(csv_split(",").size(), 2u);
}

TEST(CsvReader, BeaconRoundTrip) {
  std::vector<BeaconRecord> in;
  in.push_back(make_beacon("HK-1", "Tianqi", 1.5));
  in.push_back(make_beacon("YC, rural-2", "FOSSA", 99.25));  // comma field
  std::ostringstream os;
  write_beacon_csv(os, in);
  std::istringstream is(os.str());
  const auto out = read_beacon_csv(is);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].station, "HK-1");
  EXPECT_EQ(out[1].station, "YC, rural-2");
  EXPECT_NEAR(out[1].time_unix_s, 99.25, 1e-3);
  EXPECT_NEAR(out[0].rssi_dbm, -120.0, 0.1);
  EXPECT_EQ(out[0].satellite, "Tianqi-01");
}

TEST(CsvWriter, UplinkRow) {
  UplinkRecord r;
  r.sequence = 42;
  r.node = "TQ-node-2";
  r.payload_bytes = 60;
  r.generated_unix_s = 1000.0;
  r.first_tx_unix_s = 1100.0;
  r.satellite_rx_unix_s = 1101.0;
  r.server_rx_unix_s = 4000.5;
  r.dts_attempts = 3;
  r.delivered = true;
  r.via_satellite = "Tianqi-09";
  const auto f = uplink_row(r);
  ASSERT_EQ(f.size(), 10u);
  EXPECT_EQ(f[0], "42");
  EXPECT_EQ(f[1], "TQ-node-2");
  EXPECT_EQ(f[2], "60");
  EXPECT_EQ(f[3], "1000.000");
  EXPECT_EQ(f[6], "4000.500");
  EXPECT_EQ(f[7], "3");
  EXPECT_EQ(f[8], "1");
  EXPECT_EQ(f[9], "Tianqi-09");
}

TEST(CsvReader, RejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(read_beacon_csv(empty), std::invalid_argument);
  std::istringstream wrong_header("not,a,beacon,header\n");
  EXPECT_THROW(read_beacon_csv(wrong_header), std::invalid_argument);
  std::istringstream short_row(
      "time_unix_s,station,constellation,satellite,rssi_dbm,snr_db,"
      "elevation_deg,azimuth_deg,range_km,doppler_hz,sat_altitude_km,"
      "weather\n1.0,HK-1,Tianqi\n");
  EXPECT_THROW(read_beacon_csv(short_row), std::invalid_argument);
}

// Regression: the writers used to snprintf whole rows into char[256], so
// long station/satellite names silently truncated the row (the reader then
// failed or, worse, parsed shifted columns). Rows of any length must
// round-trip exactly, including quoted fields inside the long names.
TEST(CsvWriter, RowsLongerThan256BytesRoundTrip) {
  const std::string long_station =
      "station-\"east,ridge\"-" + std::string(300, 'S');
  const std::string long_sat = "sat," + std::string(280, 'Z') + ",tail";

  BeaconRecord b;
  b.time_unix_s = 1234.5;
  b.station = long_station;
  b.constellation = "Tianqi";
  b.satellite = long_sat;
  b.rssi_dbm = -121.5;
  b.snr_db = -7.25;
  b.elevation_deg = 42.5;
  b.azimuth_deg = 181.25;
  b.range_km = 950.5;
  b.doppler_hz = -18000.5;
  b.sat_altitude_km = 870.5;
  b.weather = "light rain, gusty";
  std::ostringstream bos;
  write_beacon_csv(bos, {b});
  std::istringstream bis(bos.str());
  const auto beacons = read_beacon_csv(bis);
  ASSERT_EQ(beacons.size(), 1u);
  EXPECT_EQ(beacons[0].station, long_station);
  EXPECT_EQ(beacons[0].satellite, long_sat);
  EXPECT_EQ(beacons[0].weather, "light rain, gusty");
  EXPECT_NEAR(beacons[0].time_unix_s, 1234.5, 1e-3);
  EXPECT_NEAR(beacons[0].doppler_hz, -18000.5, 0.1);

  UplinkRecord u;
  u.sequence = 900719925474099;
  u.node = "node-" + std::string(400, 'N') + ",with,commas";
  u.payload_bytes = 50;
  u.generated_unix_s = 1700000000.125;
  u.first_tx_unix_s = 1700000060.25;
  u.satellite_rx_unix_s = 1700000061.5;
  u.server_rx_unix_s = 1700000500.75;
  u.dts_attempts = 2;
  u.delivered = true;
  u.via_satellite = "Tianqi-\"05\"";
  const auto f = uplink_row(u);
  ASSERT_EQ(f.size(), 10u);
  EXPECT_EQ(f[0], "900719925474099");
  EXPECT_EQ(f[1], u.node);
  EXPECT_EQ(f[6], "1700000500.750");
  EXPECT_EQ(f[8], "1");
  EXPECT_EQ(f[9], "Tianqi-\"05\"");
}

TEST(CsvWriter, EmptyVectorsProduceHeaderOnly) {
  std::ostringstream os1, os2;
  write_beacon_csv(os1, {});
  write_uplink_csv(os2, {});
  const std::string s1 = os1.str();
  const std::string s2 = os2.str();
  EXPECT_EQ(std::count(s1.begin(), s1.end(), '\n'), 1);
  EXPECT_EQ(std::count(s2.begin(), s2.end(), '\n'), 1);
}

}  // namespace

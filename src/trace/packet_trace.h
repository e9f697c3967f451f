// Packet trace records — the dataset schema of the measurement study.
//
// Each received beacon yields one record with timestamp, RSSI, SNR and
// sender-satellite metadata (altitude, elevation, Doppler), mirroring what
// the customized TinyGS platform extracts (paper Sec 2.2). Active
// (Tianqi-node) traces additionally carry end-to-end timing fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sinet::trace {

/// One passively received beacon.
struct BeaconRecord {
  double time_unix_s = 0.0;
  std::string station;        ///< ground-station id, e.g. "HK-3"
  std::string constellation;  ///< e.g. "Tianqi"
  std::string satellite;      ///< e.g. "Tianqi-07"
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  double elevation_deg = 0.0;
  double azimuth_deg = 0.0;
  double range_km = 0.0;
  double doppler_hz = 0.0;
  double sat_altitude_km = 0.0;
  std::string weather;  ///< condition at the station when received
};

/// One end-to-end application packet in the active experiment.
struct UplinkRecord {
  std::uint64_t sequence = 0;
  std::string node;  ///< e.g. "TQ-node-1"
  int payload_bytes = 0;
  double generated_unix_s = 0.0;  ///< sensor produced the reading
  double first_tx_unix_s = -1.0;  ///< first DtS attempt (-1: never sent)
  double satellite_rx_unix_s = -1.0;  ///< accepted by a satellite
  double server_rx_unix_s = -1.0;     ///< arrived at subscriber server
  int dts_attempts = 0;               ///< transmissions incl. first
  int max_concurrent_tx = 0;  ///< peak simultaneous uplinks seen (Fig 12b)
  bool delivered = false;
  std::string via_satellite;

  [[nodiscard]] double wait_for_pass_s() const {
    return first_tx_unix_s < 0.0 ? -1.0 : first_tx_unix_s - generated_unix_s;
  }
  [[nodiscard]] double dts_transfer_s() const {
    return (satellite_rx_unix_s < 0.0 || first_tx_unix_s < 0.0)
               ? -1.0
               : satellite_rx_unix_s - first_tx_unix_s;
  }
  [[nodiscard]] double delivery_s() const {
    return (server_rx_unix_s < 0.0 || satellite_rx_unix_s < 0.0)
               ? -1.0
               : server_rx_unix_s - satellite_rx_unix_s;
  }
  [[nodiscard]] double end_to_end_s() const {
    return server_rx_unix_s < 0.0 ? -1.0
                                  : server_rx_unix_s - generated_unix_s;
  }
};

/// Append-only container for a measurement campaign's beacon traces.
class BeaconTraceSet {
 public:
  void add(BeaconRecord r) { records_.push_back(std::move(r)); }
  /// Make room for `n` records in total, so a producer that knows its
  /// final count appends without regrowing.
  void reserve(std::size_t n) { records_.reserve(n); }
  [[nodiscard]] const std::vector<BeaconRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Records matching a predicate-style filter (empty string = wildcard).
  [[nodiscard]] std::vector<BeaconRecord> filter(
      const std::string& station, const std::string& constellation) const;

  void clear() noexcept { records_.clear(); }

 private:
  std::vector<BeaconRecord> records_;
};

}  // namespace sinet::trace

#include "trace/csv.h"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace sinet::trace {

namespace {

[[noreturn]] void fail_row(std::size_t line_no, const char* what) {
  throw std::invalid_argument("CSV parse error at line " +
                              std::to_string(line_no) + ": " + what);
}

double to_double(const std::string& s, std::size_t line_no) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) fail_row(line_no, "expected a number");
  return v;
}

/// Fixed-precision double for streaming. Keeps the printf-style rounding
/// the readers expect while letting string fields of any length stream
/// directly (a whole-row snprintf into char[256] silently truncated rows
/// with long station/satellite names).
struct Fixed {
  double v;
  int prec;
};

std::ostream& operator<<(std::ostream& os, Fixed f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", f.prec, f.v);
  return os << buf;
}

}  // namespace

std::vector<std::string> csv_split(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::vector<BeaconRecord> read_beacon_csv(std::istream& is) {
  std::vector<BeaconRecord> out;
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(is, line))
    throw std::invalid_argument("CSV parse error: empty stream");
  ++line_no;
  if (line.rfind("time_unix_s,", 0) != 0)
    fail_row(line_no, "missing beacon CSV header");
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto f = csv_split(line);
    if (f.size() != 12) fail_row(line_no, "expected 12 columns");
    BeaconRecord r;
    r.time_unix_s = to_double(f[0], line_no);
    r.station = f[1];
    r.constellation = f[2];
    r.satellite = f[3];
    r.rssi_dbm = to_double(f[4], line_no);
    r.snr_db = to_double(f[5], line_no);
    r.elevation_deg = to_double(f[6], line_no);
    r.azimuth_deg = to_double(f[7], line_no);
    r.range_km = to_double(f[8], line_no);
    r.doppler_hz = to_double(f[9], line_no);
    r.sat_altitude_km = to_double(f[10], line_no);
    r.weather = f[11];
    out.push_back(std::move(r));
  }
  return out;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_beacon_csv(std::ostream& os, const std::vector<BeaconRecord>& rs) {
  os << "time_unix_s,station,constellation,satellite,rssi_dbm,snr_db,"
        "elevation_deg,azimuth_deg,range_km,doppler_hz,sat_altitude_km,"
        "weather\n";
  for (const BeaconRecord& r : rs) {
    os << Fixed{r.time_unix_s, 3} << ',' << csv_escape(r.station) << ','
       << csv_escape(r.constellation) << ',' << csv_escape(r.satellite)
       << ',' << Fixed{r.rssi_dbm, 1} << ',' << Fixed{r.snr_db, 1} << ','
       << Fixed{r.elevation_deg, 2} << ',' << Fixed{r.azimuth_deg, 2}
       << ',' << Fixed{r.range_km, 1} << ',' << Fixed{r.doppler_hz, 1}
       << ',' << Fixed{r.sat_altitude_km, 1} << ','
       << csv_escape(r.weather) << '\n';
  }
}

void write_uplink_csv(std::ostream& os, const std::vector<UplinkRecord>& rs) {
  os << "sequence,node,payload_bytes,generated_unix_s,first_tx_unix_s,"
        "satellite_rx_unix_s,server_rx_unix_s,dts_attempts,delivered,"
        "via_satellite\n";
  for (const UplinkRecord& r : rs) {
    os << r.sequence << ',' << csv_escape(r.node) << ',' << r.payload_bytes
       << ',' << Fixed{r.generated_unix_s, 3} << ','
       << Fixed{r.first_tx_unix_s, 3} << ','
       << Fixed{r.satellite_rx_unix_s, 3} << ','
       << Fixed{r.server_rx_unix_s, 3} << ',' << r.dts_attempts << ','
       << (r.delivered ? 1 : 0) << ',' << csv_escape(r.via_satellite)
       << '\n';
  }
}

}  // namespace sinet::trace

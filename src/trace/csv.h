// CSV serialization for trace records, for offline analysis / plotting.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "trace/packet_trace.h"

namespace sinet::trace {

/// Write beacon records as CSV (header + one row per record).
void write_beacon_csv(std::ostream& os, const std::vector<BeaconRecord>& rs);

/// Write uplink records as CSV (header + one row per record).
void write_uplink_csv(std::ostream& os, const std::vector<UplinkRecord>& rs);

/// Escape a CSV field (quotes fields containing comma/quote/newline).
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Split one CSV line into fields, honoring RFC-4180 quoting.
[[nodiscard]] std::vector<std::string> csv_split(const std::string& line);

/// Parse a beacon-trace CSV produced by write_beacon_csv (header
/// required). Throws std::invalid_argument on malformed rows with the
/// 1-based line number in the message.
[[nodiscard]] std::vector<BeaconRecord> read_beacon_csv(std::istream& is);

}  // namespace sinet::trace

// Neutral, versioned export schema for cross-simulator validation.
//
// A `sinet.validation.v1` document captures everything another simulator
// (or an analytic model) needs to score this reproduction: the predicted
// contact windows, the per-packet link records of a DtS run, the derived
// sample distributions (contact duration, PDR, latency, ...), scalar
// summary metrics, and the divergence scores the CI gate checks against
// tests/data/validation_baselines.json.
//
// Like the run-report (obs/run_report.h) and sweep (exp/sweep_spec.h)
// schemas, numbers are printed with 17 significant digits so a
// write/parse cycle is bit-exact; the unit tests round-trip
// ValidationReport -> JSON -> ValidationReport and require equality on
// the raw doubles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sinet::val {

/// Schema tag stamped into every report ("schema" key).
inline constexpr const char* kValidationSchema = "sinet.validation.v1";

/// One predicted contact window, satellite over observer.
struct WindowRecord {
  std::string satellite;  ///< TLE name or catalog number
  std::string observer;   ///< site code / node name
  double aos_jd = 0.0;
  double los_jd = 0.0;
  double tca_jd = 0.0;
  double max_elevation_deg = 0.0;
};

/// One per-packet link trace record of the DtS run.
struct LinkRecord {
  std::string node;
  double generated_unix_s = 0.0;
  double first_tx_unix_s = -1.0;   ///< -1: never transmitted
  double server_rx_unix_s = -1.0;  ///< -1: never delivered
  std::uint64_t attempts = 0;
  bool delivered = false;
};

/// A named sample distribution (e.g. "contact_duration_s.reference").
struct NamedDistribution {
  std::string name;
  std::vector<double> samples;
};

/// A named scalar: summary metrics ("scalars") and divergence scores
/// ("scores") share this shape.
struct NamedValue {
  std::string name;
  double value = 0.0;
};

struct ValidationReport {
  std::string scenario;  ///< validation_scenario() name
  double start_jd = 0.0;
  double duration_days = 0.0;

  std::vector<WindowRecord> windows;
  std::vector<LinkRecord> link_records;
  std::vector<NamedDistribution> distributions;
  std::vector<NamedValue> scalars;
  std::vector<NamedValue> scores;

  /// Score by name; NaN when absent.
  [[nodiscard]] double score_or_nan(const std::string& name) const;
};

/// Serialize as a self-describing JSON document (17-significant-digit
/// numbers, so every double is written bit-exactly).
[[nodiscard]] std::string to_json(const ValidationReport& report);

/// Write to_json(report) to `path`. Returns false on I/O failure.
bool write_json_file(const std::string& path, const ValidationReport& report);

}  // namespace sinet::val

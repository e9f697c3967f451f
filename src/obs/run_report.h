// Structured run-report export for obs::MetricsRegistry snapshots.
//
// The machine-readable JSON report a campaign run emits via
// `--metrics <out.json>` (examples/sinet_cli.cpp), which CI's smoke jobs
// and bench/e2e's serve-zipf workload read back.
//
// parse_json() understands exactly what to_json() emits (numbers printed
// with 17 significant digits, so doubles survive a write/parse cycle
// bit-exactly); the unit tests round-trip Snapshot -> JSON -> Snapshot.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace sinet::obs {

/// Schema tag stamped into every report ("schema" key).
inline constexpr const char* kRunReportSchema = "sinet.run_report.v1";

/// Serialize a snapshot as a self-describing JSON document.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// Parse a document produced by to_json(). Throws std::runtime_error on
/// malformed input or a schema mismatch.
[[nodiscard]] Snapshot parse_json(const std::string& json);

/// Write to_json(snapshot) to `path`. Returns false on I/O failure.
bool write_json_file(const std::string& path, const Snapshot& snapshot);

}  // namespace sinet::obs

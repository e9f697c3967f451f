// Sharded, resumable execution of Monte-Carlo sweeps.
//
// run_sweep() takes an expanded SweepSpec and pushes every RunPoint
// through a PointRunner — a pure function (RunPoint -> named scalar
// metrics) — sharding points across the shared sim::ThreadPool. Because
// each point is a pure function of (params, seed), the per-point metrics
// are identical at threads=1 and threads=N; the aggregate step then
// sorts by (grid_index, replicate) so the report JSON is byte-identical
// regardless of scheduling order.
//
// Checkpointing: with SweepOptions::manifest_path set, every completed
// point is appended to a JSONL manifest (one line per point, flushed and
// fsync'd) headed by a fingerprint of the spec. An interrupted sweep
// re-run with the same spec skips completed points and reuses their
// recorded metrics — the resumed aggregate is byte-identical to an
// uninterrupted run (tests/test_sweep.cpp proves it).
//
// Instrumentation: with SweepOptions::metrics set, progress lands under
// "net.sweep.*" (points_total / points_resumed / points_executed /
// cells counters, phase gauges net.sweep.phase.{expand,resume,execute,
// aggregate}_s, and a per-point latency histogram).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep_spec.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::exp {

/// Named scalar metrics one run point produces (ordered map so every
/// serialization of the same metrics is identical).
using PointMetrics = std::map<std::string, double>;

/// Executes one point. Must be thread-safe and a pure function of the
/// point (same point -> same metrics), or resume/parity guarantees die.
using PointRunner = std::function<PointMetrics(const RunPoint&)>;

/// Built-in runner for a spec's `runner` name:
///  - "active":       net::run_dts_network via the Tianqi active config.
///    Params: duration_days, max_retransmissions, payload_bytes.
///    Metrics: reliability, mean_latency_min, wait_min, delivery_min,
///    mean_attempts, delivered_fraction.
///  - "passive":      core::run_passive_campaign (all sites/fleets).
///    Params: duration_days. Metrics: traces, beacons_transmitted,
///    beacons_received, beacon_loss_fraction.
///  - "availability": core::daily_presence_hours per paper constellation.
///    Params: duration_days, latitude_deg, longitude_deg.
///    Metrics: presence_h.<constellation>.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] PointRunner built_in_runner(const std::string& name);

/// Across-replicate summary of one metric in one grid cell.
struct MetricAggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (0 when n < 2)
  double ci_low = 0.0;  ///< 95% percentile-bootstrap CI for the mean
  double ci_high = 0.0;
  friend bool operator==(const MetricAggregate&,
                         const MetricAggregate&) = default;
};

struct CellAggregate {
  std::size_t grid_index = 0;
  PointParams params;
  std::map<std::string, MetricAggregate> metrics;
  friend bool operator==(const CellAggregate&,
                         const CellAggregate&) = default;
};

/// Thread-safe collector of completed points. Workers add() concurrently;
/// aggregate() orders by (grid_index, replicate) before summarizing, so
/// the result is independent of completion order. Bootstrap CIs draw from
/// a stream derived per (cell, metric) off the sweep's root seed —
/// deterministic, and independent of every simulation stream.
class SweepAccumulator {
 public:
  void add(const RunPoint& point, PointMetrics metrics);
  /// Completed points sorted by (grid_index, replicate).
  [[nodiscard]] std::vector<std::pair<RunPoint, PointMetrics>>
  sorted_points() const;
  [[nodiscard]] std::vector<CellAggregate> aggregate(
      std::uint64_t root_seed, std::size_t bootstrap_resamples = 1000) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<RunPoint, PointMetrics>> points_;
};

struct SweepOptions {
  /// Sharding fan-out: 0 = shared pool (all hardware threads), 1 = serial
  /// on the calling thread, N = a local N-worker pool.
  unsigned threads = 0;
  /// JSONL checkpoint manifest; empty disables checkpointing.
  std::string manifest_path;
  /// Ignore (and overwrite) an existing manifest instead of resuming.
  bool fresh = false;
  /// Stop after this many newly-executed points (0 = run everything).
  /// The deterministic stand-in for an interrupt: the manifest holds the
  /// completed prefix and the next run resumes it.
  std::size_t max_points = 0;
  std::size_t bootstrap_resamples = 1000;
  /// Optional run-metrics sink ("net.sweep.*"); must outlive run_sweep().
  obs::MetricsRegistry* metrics = nullptr;
};

struct SweepResult {
  SweepSpec spec;
  bool complete = false;  ///< every grid point has run (none truncated)
  std::size_t resumed_points = 0;   ///< replayed from the manifest
  std::size_t executed_points = 0;  ///< freshly run this invocation
  /// Completed points, sorted by (grid_index, replicate).
  std::vector<std::pair<RunPoint, PointMetrics>> points;
  std::vector<CellAggregate> cells;
};

/// Run (or resume) a sweep with an explicit runner.
/// Throws std::invalid_argument on a bad spec and std::runtime_error on
/// manifest problems (unwritable path, or an existing manifest whose
/// fingerprint does not match the spec).
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const PointRunner& runner,
                                    const SweepOptions& opts = {});

/// Convenience: run with built_in_runner(spec.runner).
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const SweepOptions& opts = {});

/// Schema tag of the aggregate report.
inline constexpr const char* kSweepReportSchema = "sinet.sweep_report.v1";
/// Schema tag of the checkpoint manifest header line.
inline constexpr const char* kSweepManifestSchema = "sinet.sweep_manifest.v1";

/// Aggregate report document. Equal results serialize byte-identically
/// (doubles at 17 significant digits), which is what the kill-and-resume
/// regression compares.
[[nodiscard]] std::string report_json(const SweepResult& result);

/// Write report_json() to `path`. Returns false on I/O failure.
bool write_report_file(const std::string& path, const SweepResult& result);

}  // namespace sinet::exp

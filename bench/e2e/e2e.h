// Shared declarations of sinet_bench_e2e, the measuring process behind
// bench/e2e/run.py. One invocation runs one workload for a fixed time and
// prints one JSON report line; run.py aggregates repeats and checks.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "orbit/tle.h"
#include "trace.h"

namespace sinet::bench_e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
  bool smoke = false;     ///< tiny inputs, same code paths and checks
  bool traced = false;    ///< per-layer run instead of the end-to-end one
  std::string trace_path;  ///< Chrome trace output of a traced run
  std::string cli_path;    ///< the `sinet` binary (serve-zipf only)
  std::string work_dir;    ///< scratch files (serve's --metrics report)
};

/// Everything one run reports back; serialized as the last stdout line.
struct RunReport {
  std::vector<double> setup_s;  ///< input build (batch), server start (serve)
  std::vector<double> wall_s;   ///< one per timed unit of work
  double peak_rss_mb = 0.0;     ///< batch: after the first unit
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  /// Traced runs: the layer table, whose rows (named after per-layer
  /// metrics) sum to `layer_total`, and the per-layer metrics.
  std::pair<std::string, double> layer_total;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> metrics;

  /// Record one output check; repeated names are AND-ed into one entry.
  /// A failed check fails the run.
  void check(const std::string& name, bool ok);
  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  [[nodiscard]] std::string to_json() const;
};

/// The four batch workloads (campaign-30d, contact-plan-30d,
/// dts-trace-2k, dts-fleet-10k).
[[nodiscard]] bool is_batch_workload(const std::string& workload);
[[nodiscard]] RunReport run_batch(const RunOptions& opts);

[[nodiscard]] RunReport run_serve(const RunOptions& opts);

/// TLEs of the 39 satellites of the four paper constellations at `epoch`.
[[nodiscard]] std::vector<orbit::Tle> paper_tles(orbit::JulianDate epoch);

/// Whether a timed run of `seconds` starts another unit of work: always
/// until it has `min_units`, then only while one more unit, as long as
/// the last one, still ends in time. A run thus ends within `seconds`
/// (or after `min_units`) instead of overrunning by up to one unit.
[[nodiscard]] inline bool next_unit_fits(Clock::time_point start,
                                         double seconds, std::size_t units,
                                         double last_unit_s,
                                         std::size_t min_units) {
  return units < min_units || seconds_since(start) + last_unit_s <= seconds;
}

/// Median of a non-empty sample (copied, then partially sorted).
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile of an ascending-sorted sample.
[[nodiscard]] double sorted_quantile(const std::vector<double>& sorted,
                                     double q);

/// VmHWM of `pid` (or of this process when pid == 0) in MiB.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// A child process with its stdout on a pipe. The child gets SIGKILL if
/// this process dies first; the destructor kills and reaps it if the
/// owner has not waited, so no child outlives a failed run.
class ChildProcess {
 public:
  /// fork + exec `argv` (argv[0] is the program path). Throws on failure.
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Read stdout until a line starting with `prefix` arrives; returns the
  /// rest of that line. Throws on EOF or when `timeout_s` passes first.
  [[nodiscard]] std::string wait_for_line(const std::string& prefix,
                                          double timeout_s);
  void terminate();
  /// Wait for exit; returns the exit status (128 + signal if signalled).
  /// Kills the child with SIGKILL if it has not exited within timeout_s.
  int wait(double timeout_s);

 private:
  [[nodiscard]] bool read_more(double timeout_s);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
  bool reaped_ = false;
};

}  // namespace sinet::bench_e2e

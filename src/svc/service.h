// Resident pass-prediction service: the query engine behind `sinet serve`.
//
// Owns the paper constellation (synthetic TLEs + SGP4 propagators), a
// rolling-horizon shared ephemeris (orbit::RollingEphemeris) that a
// maintenance thread advances incrementally, and its own
// ContactWindowCache (sized by ServiceOptions::cache_entries and
// cache_bytes, separate from the process-wide one) for per-(satellite,
// observer, span) window reuse by passes_in_range. next_pass searches the
// horizon directly
// (RollingEphemeris::next_pass) and never touches the cache.
// Transport-agnostic: the TCP server (svc/server.h) feeds it request
// lines; tests drive handle_line() directly.
//
// Concurrency: handle_line() is safe from any number of threads
// (shared-locks the horizon); advance_horizon() takes the exclusive
// lock. Queries therefore never observe a half-advanced horizon, and the
// cache's single-flight keying (which includes the horizon span) keeps
// fresh and stale windows from aliasing across an advance.
//
// Time: "now" is a virtual clock — epoch_unix_s (default: wall clock at
// construction) plus scaled steady-clock elapsed. time_scale > 1 lets
// tests and CI exercise horizon retirement in seconds instead of hours.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "orbit/ephemeris.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/tle.h"
#include "svc/protocol.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::svc {

/// PassService refuses a horizon (horizon_hours + retention_hours) whose
/// grid holds more samples per satellite than this at step_s: the default
/// 30 s grid holds 2,910 over 24.25 h, and 100,000 samples of all 39
/// satellites keep about 126 MB resident.
inline constexpr double kMaxHorizonSamples = 100'000.0;

struct ServiceOptions {
  /// Paper constellation to serve: "all" (39 satellites across Tianqi,
  /// FOSSA, PICO and CSTP) or one constellation name.
  std::string constellation = "all";
  double horizon_hours = 24.0;    ///< lookahead maintained past "now"
  double retention_hours = 0.25;  ///< history kept behind "now"
  double step_s = 30.0;           ///< coarse grid step
  std::size_t chunk_samples = 1024;  ///< rolling-horizon chunk size
  double min_elevation_deg = 10.0;   ///< default mask (paper's DtS mask)
  std::size_t cache_entries = 65536;
  std::size_t cache_bytes = 64ull << 20;  ///< pass-cache byte budget
  /// Virtual-clock epoch; NaN = wall clock at construction. TLEs are
  /// generated at this epoch, so the horizon is immediately busy.
  double epoch_unix_s = std::numeric_limits<double>::quiet_NaN();
  double time_scale = 1.0;  ///< virtual seconds per real second
  /// Ephemeris fill kernel; no response depends on it.
  orbit::PropagationMode mode = orbit::propagation_mode();
};

class PassService {
 public:
  /// Builds the constellation, anchors the rolling horizon at the epoch
  /// and performs the initial advance, so the first query is warm.
  explicit PassService(const ServiceOptions& opts,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Parse + answer one request line; every failure path returns a typed
  /// error response — this function never throws.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Advance the rolling horizon to cover
  /// [now - retention_hours, now + horizon_hours]. Exclusive-locks the
  /// horizon; cheap no-op when already covered.
  orbit::RollingEphemeris::AdvanceStats advance_horizon();

  [[nodiscard]] double now_unix_s() const;
  [[nodiscard]] std::size_t satellite_count() const noexcept {
    return propagators_.size();
  }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }

  /// Counter the transport layer bumps when admission control sheds a
  /// request (so `stats` reports it next to the service's own counters).
  void note_shed() noexcept { shed_.fetch_add(1, std::memory_order_relaxed); }

  /// Snapshot of the service counters (the `stats` response payload).
  [[nodiscard]] StatsPayload stats_payload();

 private:
  [[nodiscard]] orbit::JulianDate now_jd() const;
  [[nodiscard]] std::string handle(const Request& req);
  [[nodiscard]] std::string handle_next_pass(const Request& req);
  [[nodiscard]] std::string handle_passes_in_range(const Request& req);
  [[nodiscard]] std::string handle_visibility_now(const Request& req);
  /// Windows of one satellite over the current horizon, through the
  /// single-flight cache. Caller holds the shared horizon lock.
  [[nodiscard]] std::vector<orbit::ContactWindow> windows_for(
      std::size_t sat, const orbit::Geodetic& observer, double mask_deg,
      orbit::JulianDate h_start, orbit::JulianDate h_end);
  void refresh_gauges();

  ServiceOptions opts_;
  obs::MetricsRegistry* metrics_;
  std::vector<orbit::Tle> tles_;
  std::vector<orbit::Sgp4> propagators_;
  std::unique_ptr<orbit::RollingEphemeris> rolling_;
  mutable std::shared_mutex horizon_mutex_;
  orbit::ContactWindowCache cache_;
  std::chrono::steady_clock::time_point t0_;
  double epoch_unix_s_ = 0.0;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> advances_{0};
};

}  // namespace sinet::svc

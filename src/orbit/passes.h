// Contact-window ("pass") prediction for a satellite over a ground site.
//
// This is the paper's notion of *theoretical* contact: the interval during
// which the satellite is above the observer's elevation mask, computed
// from TLEs via SGP4 (paper Sec 3.1, Figs 3a/4a/4b).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "orbit/geodetic.h"
#include "orbit/look_angles.h"
#include "orbit/sgp4.h"
#include "orbit/tle.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::orbit {

/// One predicted contact window.
struct ContactWindow {
  JulianDate aos_jd = 0.0;  ///< acquisition of signal (rise above mask)
  JulianDate los_jd = 0.0;  ///< loss of signal (set below mask)
  JulianDate tca_jd = 0.0;  ///< time of closest approach (max elevation)
  double max_elevation_deg = 0.0;

  [[nodiscard]] double duration_s() const noexcept {
    return (los_jd - aos_jd) * kSecondsPerDay;
  }
};

/// One sample of pass geometry, used to drive the channel model.
struct PassSample {
  JulianDate jd = 0.0;
  LookAngles look;
  Geodetic subsatellite_point;
};

struct PassPredictionOptions {
  double min_elevation_deg = 0.0;  ///< elevation mask defining visibility
  double coarse_step_s = 30.0;     ///< scan step; halved pass is ~60 s min
  double refine_tolerance_s = 0.5; ///< bisection tolerance on AOS/LOS
};

/// Evaluates pass geometry for one fixed (propagator, observer) pair.
///
/// Hoists everything that does not change between samples out of the
/// per-sample loop: the observer's ECEF position and ENU basis trig
/// (TopocentricFrame); teme_to_ecef_state evaluates the GMST rotation
/// once per sample for both position and velocity.
class ElevationSampler {
 public:
  /// `prop` must outlive the sampler.
  ElevationSampler(const Sgp4& prop, const Geodetic& observer)
      : prop_(&prop), frame_(observer) {}
  /// Same sampler, from an observer frame built once for many satellites.
  ElevationSampler(const Sgp4& prop, const TopocentricFrame& frame)
      : prop_(&prop), frame_(frame) {}

  /// Elevation (deg) of the satellite above the observer's horizon.
  [[nodiscard]] double elevation_deg(JulianDate jd) const;

  /// Look angles only: bit-equal to sample(jd).look, without the
  /// subsatellite point's geodetic inversion (about half of sample()'s
  /// cost), for callers that never read it.
  [[nodiscard]] LookAngles look(JulianDate jd) const;

  /// Full geometry sample (look angles + subsatellite point).
  [[nodiscard]] PassSample sample(JulianDate jd) const;

  [[nodiscard]] const Sgp4& propagator() const noexcept { return *prop_; }
  [[nodiscard]] const TopocentricFrame& frame() const noexcept {
    return frame_;
  }

 private:
  const Sgp4* prop_;
  TopocentricFrame frame_;
};

/// Bisect for the elevation-mask crossing between jd_lo and jd_hi (which
/// must bracket a visibility transition). Every scan engine
/// (orbit/ephemeris.h, orbit/pair_scan.h) refines AOS/LOS with this one
/// primitive — bit-identical windows depend on it. The search evaluates
/// its points four at a time in SIMD lanes and falls back to
/// `sampler.elevation_deg` for any comparison outside the lane
/// certificate (orbit/sgp4_batch.h); it returns (and throws) exactly what
/// the one-point-at-a-time scalar bisection does.
[[nodiscard]] JulianDate refine_mask_crossing(const ElevationSampler& sampler,
                                              JulianDate jd_lo,
                                              JulianDate jd_hi,
                                              double mask_deg, double tol_s);

/// Golden-section search for the max elevation inside [a, b]; returns
/// {tca_jd, max_elevation_deg}. Shared by every scan engine for the same
/// reason as refine_mask_crossing, and evaluated the same way; the
/// returned elevation is always `sampler.elevation_deg(tca_jd)`.
[[nodiscard]] std::pair<JulianDate, double> refine_max_elevation(
    const ElevationSampler& sampler, JulianDate a, JulianDate b);

/// Geometry of a satellite at a given instant, as seen from `observer`.
[[nodiscard]] PassSample sample_geometry(const Sgp4& prop,
                                         const Geodetic& observer,
                                         JulianDate jd);

/// One ground site of a multi-observer grid prediction. A NaN mask (the
/// default) means "use opts.min_elevation_deg"; setting it lets callers
/// with heterogeneous masks (e.g. DtS nodes at the visibility mask and
/// ground stations at their own minimum elevation) share one grid call.
struct GridObserver {
  Geodetic location;
  double min_elevation_deg = std::numeric_limits<double>::quiet_NaN();
};

/// Find all contact windows in [jd_start, jd_end] for every (satellite,
/// observer) pair, through the shared-ephemeris + conservative-culling
/// engine (orbit/ephemeris.h, scan_pass_pairs): each satellite is
/// propagated once per coarse step and shared across all observers, GMST
/// is evaluated once per step across all satellites, and
/// provably-below-mask samples are skipped. Windows already in progress
/// at jd_start are truncated to jd_start; windows still open at jd_end
/// are truncated to jd_end. Result is indexed [satellite][observer];
/// every window is bit-identical to the one-pair scalar scan that
/// tests/pass_scan_oracle.h keeps.
///
/// `threads`: 0 = all hardware threads (the process-wide shared pool),
/// 1 = serial on the calling thread (no pool), N > 1 = N workers; pairs
/// fan out across the pool. Throws std::invalid_argument on a
/// non-finite or inverted span, a non-finite or nonpositive step, a step
/// longer than a positive span, or a null propagator. When `metrics` is
/// non-null the engine records orbit.ephemeris.* reuse/cull counters and
/// a scan-latency histogram.
[[nodiscard]] std::vector<std::vector<std::vector<ContactWindow>>>
predict_passes_grid(const std::vector<const Sgp4*>& satellites,
                    const std::vector<GridObserver>& observers,
                    JulianDate jd_start, JulianDate jd_end,
                    const PassPredictionOptions& opts = {},
                    unsigned threads = 0,
                    obs::MetricsRegistry* metrics = nullptr);

/// Memoizes predicted windows per satellite.
///
/// Key = (TLE epoch + orbital elements, observer, span, prediction
/// options), all compared exactly — a cache hit can only return windows
/// an identical computation would have produced. The campaign drivers
/// (run_passive_campaign, constellation_windows,
/// presence_vs_constellation_size)
/// repeatedly re-derive the same windows for the same satellite/site/span;
/// this cache collapses those recomputations. Thread-safe; bounded LRU
/// (hits refresh recency). get_or_compute is single-flight: concurrent
/// misses on the same key block on the first caller's computation instead
/// of each running their own.
class ContactWindowCache {
 public:
  /// `max_bytes` bounds the resident footprint of the cached windows
  /// (entry payloads plus fixed per-entry bookkeeping, see
  /// Stats::bytes); 0 = unbounded. Entry-count and byte budgets evict
  /// independently — whichever is exceeded first takes the LRU victim.
  /// A resident server (src/svc) runs with a byte budget so its memory
  /// stays observable and bounded over days of rolling-horizon churn.
  explicit ContactWindowCache(std::size_t max_entries = 4096,
                              std::size_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Return the cached windows for (tle, observer, span, opts), running
  /// `compute` and inserting its windows on a miss. Waiting on another
  /// caller's in-flight computation of the same key counts as a hit (only
  /// the first caller records the miss and runs `compute`); if that
  /// computation throws, the exception is rethrown to every waiter. The
  /// pass-prediction service (src/svc) serves misses this way from its
  /// warm rolling-horizon ephemeris while sharing one cache (and one set
  /// of keys) with predict_passes_grid_cached.
  [[nodiscard]] std::vector<ContactWindow> get_or_compute(
      const Tle& tle, const Geodetic& observer, JulianDate jd_start,
      JulianDate jd_end, const PassPredictionOptions& opts,
      const std::function<std::vector<ContactWindow>()>& compute);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /// Accounted resident size: per-entry payload
    /// (windows.capacity() * sizeof(ContactWindow)) plus
    /// kEntryOverheadBytes of map/list bookkeeping.
    std::size_t bytes = 0;
  };
  [[nodiscard]] Stats stats() const;
  void clear();

  /// Fixed bookkeeping charged per entry on top of the window payload:
  /// two 16-double keys (map node + recency list node), red-black node
  /// and list pointers, and the Entry struct itself, rounded up. Exact
  /// malloc geometry is allocator-specific; what matters for the budget
  /// is that empty-window entries still have nonzero accounted cost.
  static constexpr std::size_t kEntryOverheadBytes = 384;

  /// Process-wide cache used by the core campaign drivers.
  [[nodiscard]] static ContactWindowCache& global();

 private:
  // Epoch + elements + observer + span + options, compared exactly.
  using Key = std::array<double, 16>;
  static Key make_key(const Tle& tle, const Geodetic& observer,
                      JulianDate jd_start, JulianDate jd_end,
                      const PassPredictionOptions& opts);

  struct Entry {
    std::vector<ContactWindow> windows;
    std::list<Key>::iterator recency;  // position in recency_
    std::size_t bytes = 0;             // accounted size incl. overhead
  };
  // One in-flight computation, shared between the owner and any waiters.
  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::vector<ContactWindow> windows;
    std::exception_ptr error;
  };

  friend std::vector<std::vector<std::vector<ContactWindow>>>
  predict_passes_grid_cached(const std::vector<Tle>& tles,
                             const std::vector<GridObserver>& observers,
                             JulianDate jd_start, JulianDate jd_end,
                             const PassPredictionOptions& opts,
                             unsigned threads, ContactWindowCache* cache,
                             obs::MetricsRegistry* metrics);

  void insert(const Key& key, const std::vector<ContactWindow>& windows);
  // Move `it` to most-recently-used. Caller holds mutex_.
  void touch(std::map<Key, Entry>::iterator it);
  // Evict LRU entries until both budgets are respected. Caller holds
  // mutex_.
  void evict_over_budget();

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> recency_;  // front = LRU victim, back = most recent
  std::map<Key, std::shared_ptr<InFlight>> inflight_;
  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Cached multi-observer prediction: predict_passes_grid semantics (result
/// indexed [satellite][observer], per-observer masks honored) with every
/// (satellite, observer) pair served from `cache` where possible and the
/// misses computed in ONE shared-ephemeris engine scan. Cache keys use the
/// observer's *effective* mask, so entries interoperate with
/// get_or_compute. Rejects the same arguments as predict_passes_grid,
/// and a null cache, before probing the cache.
///
/// When `metrics` is non-null the call adds this probe's hits/misses to
/// the "orbit.pass_cache.hits" / "orbit.pass_cache.misses" counters and
/// refreshes the "orbit.pass_cache.entries" / ".bytes" gauges once per
/// call, in addition to the engine's orbit.ephemeris.* instrumentation
/// for the miss computation.
[[nodiscard]] std::vector<std::vector<std::vector<ContactWindow>>>
predict_passes_grid_cached(const std::vector<Tle>& tles,
                           const std::vector<GridObserver>& observers,
                           JulianDate jd_start, JulianDate jd_end,
                           const PassPredictionOptions& opts = {},
                           unsigned threads = 0,
                           ContactWindowCache* cache =
                               &ContactWindowCache::global(),
                           obs::MetricsRegistry* metrics = nullptr);

/// Sample look angles along a window at `step_s` spacing (inclusive ends).
[[nodiscard]] std::vector<PassSample> sample_pass(const Sgp4& prop,
                                                  const Geodetic& observer,
                                                  const ContactWindow& window,
                                                  double step_s = 5.0);

/// Aggregate daily visibility: total seconds per day that at least one of
/// the windows is open, averaged over the span. (Windows may overlap when
/// aggregating a whole constellation; overlaps are merged.)
[[nodiscard]] double daily_visible_seconds(
    const std::vector<ContactWindow>& windows, JulianDate jd_start,
    JulianDate jd_end);

/// Gaps between consecutive (merged) windows, in seconds.
[[nodiscard]] std::vector<double> contact_gaps_s(
    const std::vector<ContactWindow>& windows);

/// Merge overlapping/adjacent windows (for constellation-level analysis).
[[nodiscard]] std::vector<ContactWindow> merge_windows(
    std::vector<ContactWindow> windows);

}  // namespace sinet::orbit

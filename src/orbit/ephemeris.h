// Shared-ephemeris pass-prediction engine with conservative geometric
// culling.
//
// A per-pair coarse scan (the one tests/pass_scan_oracle.h keeps as the
// test oracle) pays one SGP4 propagation + GMST evaluation + TEME->ECEF
// rotation + look-angle solve per coarse step per (satellite, observer)
// pair, even though the satellite's ephemeris is observer-independent and
// almost every sample is far below the horizon. This engine:
//
//  1. propagates each satellite ONCE per coarse step into a shared
//     EphemerisTable (ECEF position + geocentric distance), with GMST
//     evaluated once per step across all satellites;
//  2. culls samples that are provably below the elevation mask from
//     geometry alone, and uses a worst-case angular-rate bound to skip
//     ahead over stretches that provably stay below it;
//  3. refines AOS/LOS/TCA with the shared ElevationSampler primitives
//     (refine_mask_crossing / refine_max_elevation), on the same coarse
//     grid times a per-pair scan steps through.
//
// The result: every emitted ContactWindow is bit-identical to the
// per-pair scalar scan on the same (satellite, observer, span, options),
// whichever kernel filled the table — the culling decides only "provably
// not visible", never "visible", and every other sample takes the table's
// verdict only under the lane certificate (orbit/sgp4_batch.h), the
// scalar ElevationSampler's otherwise.
//
// Culling math (all angles geocentric, at the Earth's center):
// let gamma be the angle between the observer's geocentric direction and
// the satellite's, d the satellite's geocentric distance and R_o the
// observer's. The *geocentric* elevation satisfies
//     sin(el_geo) = (d cos(gamma) - R_o) / |sat - obs|,
// which is monotone decreasing in gamma and increasing in d. The true
// (geodetic-horizon) elevation differs from el_geo by at most the angle
// delta between the geodetic and geocentric verticals (<= ~0.2 deg on
// WGS-84). So with eps' = mask - delta - pad, every gamma above
//     gamma_vis = acos(clamp((R_o / d_max) cos(eps'), -1, 1)) - eps'
// is provably below the mask for ANY d <= d_max. The satellite's
// geocentric angular rate (inertial rate + Earth rotation) is bounded by
// omega_max, so from a sample with margin (gamma - gamma_vis) the pair
// stays invisible for at least (gamma - gamma_vis) / omega_max seconds —
// the scan jumps that many whole coarse steps ahead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "orbit/geodetic.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/sgp4_batch.h"
#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::sim {
class ThreadPool;
}  // namespace sinet::sim

namespace sinet::orbit {

/// The kernel that fills the shared ephemeris table. No output depends on
/// it: every visibility verdict is certified against, or taken from, the
/// scalar sampler (see the header comment).
enum class PropagationMode : int {
  /// Scalar SGP4, one satellite and one time per call.
  kReference = 0,
  /// SoA/SIMD batched SGP4 (orbit/sgp4_batch.h), four satellites per
  /// call; the default.
  kFast = 1,
};

/// Process-wide default fill kernel: kFast unless set_propagation_mode
/// says otherwise.
[[nodiscard]] PropagationMode propagation_mode() noexcept;
void set_propagation_mode(PropagationMode mode) noexcept;

/// Apogee/perigee slack (km) applied to the SGP4 epoch elements when
/// bounding the satellite's geocentric distance and speed; absorbs
/// periodic perturbations and drag-induced drift over campaign spans.
inline constexpr double kCullRadialMarginKm = 50.0;

/// Multiplier on the two-body perigee speed bound; covers perturbations
/// that momentarily exceed the osculating-element estimate.
inline constexpr double kCullRateSafety = 1.06;

/// Angular pad (rad) subtracted from the effective mask before building
/// the horizon cone. ~2 arcsec: orders of magnitude above double
/// round-off in the cone/margin arithmetic and the <= 2e-6 rad effect of
/// coarse-grid float accumulation drift on skip windows, and orders of
/// magnitude below any real visibility geometry.
inline constexpr double kCullAngularPadRad = 1e-5;

/// Throws std::invalid_argument, its message prefixed by `caller`,
/// unless jd_start and jd_end are finite with jd_start <= jd_end and
/// coarse_step_s is finite, positive and large enough that
/// `jd += step_days` moves every jd up to the larger of |jd_start| and
/// |jd_end|. Every scan entry point checks this before any work: a NaN or
/// infinite bound, or a step below the grid's resolution, would never end
/// the grid's accumulation loop.
void check_scan_span(const char* caller, JulianDate jd_start,
                     JulianDate jd_end, double coarse_step_s);

/// The coarse scan grid: jd_start, then the float accumulation
/// jd += step_days, clamped to jd_end, built once and shared by every
/// pair. Sharing the *identical* sample times (not k * step
/// reconstructions) is what keeps refinement brackets — and therefore
/// emitted windows — bit-identical to a per-pair scan that accumulates
/// its own times.
class ScanGrid {
 public:
  /// Throws as check_scan_span does.
  ScanGrid(JulianDate jd_start, JulianDate jd_end, double coarse_step_s);

  /// Wrap explicitly provided sample times. `times` must be the
  /// continuation of an existing `jd += step_days` accumulation:
  /// RollingEphemeris uses this to extend a rolling grid chunk-by-chunk
  /// without re-anchoring the float accumulation (which would break
  /// bit-parity with a fresh full-span grid). Throws on empty times, or
  /// as check_scan_span does on the first and last time and the step.
  ScanGrid(std::vector<JulianDate> times, double coarse_step_s);

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] JulianDate time(std::size_t k) const { return times_[k]; }
  [[nodiscard]] JulianDate start() const noexcept { return start_; }
  [[nodiscard]] JulianDate end() const noexcept { return end_; }
  [[nodiscard]] double step_s() const noexcept { return step_s_; }
  [[nodiscard]] double step_days() const noexcept { return step_days_; }

 private:
  std::vector<JulianDate> times_;
  JulianDate start_, end_;
  double step_s_, step_days_;
};

/// Per-satellite ECEF positions over one chunk of the scan grid, shared
/// across every observer. GMST is evaluated once per sample and reused
/// for all satellites; positions are bit-identical to what
/// teme_to_ecef_state produces inside ElevationSampler at the same jd.
/// Chunked so a 39-satellite x 30-day x 30-s campaign never materializes
/// the full table (~100+ MB) at once.
class EphemerisTable {
 public:
  /// `satellites` and `grid` must outlive the table. With kFast the
  /// table transposes the propagators into an Sgp4Batch and fills rows
  /// four satellites per lane group; lanes the batch flags as
  /// non-physical are re-run through the scalar propagator, which either
  /// surfaces the same typed PropagationError the scalar fill would have
  /// thrown or (near-threshold disagreement) supplies the scalar result
  /// and counts a fallback. With kReference every position is the bits
  /// ElevationSampler computes at the same time.
  EphemerisTable(const std::vector<const Sgp4*>& satellites,
                 const ScanGrid& grid,
                 PropagationMode mode = propagation_mode());

  /// (Re)fill the table for grid samples [first, first + count).
  /// `row_start`, when non-null, gives per-satellite first needed sample
  /// (absolute index, clamped to the chunk): rows are only propagated
  /// from there on, and satellites whose row_start is past the chunk are
  /// skipped entirely. `pool` non-null fans rows out across it.
  void build(std::size_t first, std::size_t count, sim::ThreadPool* pool,
             const std::vector<std::size_t>* row_start = nullptr);

  /// ECEF position of satellite `s` at absolute grid sample `k` (must be
  /// inside the built chunk, at or after the row's start).
  [[nodiscard]] const Vec3& position_ecef_km(std::size_t s,
                                             std::size_t k) const {
    return positions_[s * built_count_ + (k - built_first_)];
  }
  /// Geocentric distance |position| (km) at the same sample.
  [[nodiscard]] double distance_km(std::size_t s, std::size_t k) const {
    return distances_[s * built_count_ + (k - built_first_)];
  }

  /// Total SGP4 propagations performed across all build() calls.
  [[nodiscard]] std::uint64_t propagations() const noexcept {
    return propagations_;
  }

  /// Real (non-pad) satellite-samples produced by the SIMD batch kernel
  /// across all build() calls. Zero with the scalar kernel.
  [[nodiscard]] std::uint64_t simd_lanes_filled() const noexcept {
    return simd_lanes_filled_;
  }
  /// Batch lanes that were re-evaluated by the scalar propagator because
  /// the kernel flagged them non-physical.
  [[nodiscard]] std::uint64_t simd_scalar_fallbacks() const noexcept {
    return simd_scalar_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  const std::vector<const Sgp4*>* satellites_;
  const ScanGrid* grid_;
  std::unique_ptr<Sgp4Batch> batch_;  // kFast only
  std::vector<double> gmst_;        // per chunk sample
  std::vector<Vec3> positions_;     // [sat][chunk sample]
  std::vector<double> distances_;   // [sat][chunk sample]
  std::size_t built_first_ = 0;
  std::size_t built_count_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t simd_lanes_filled_ = 0;
  std::atomic<std::uint64_t> simd_scalar_fallbacks_{0};
};

/// Span-wide conservative bounds on one satellite's geometry, derived
/// from its SGP4 epoch elements. `valid == false` (hyperbolic/degenerate
/// elements) disables culling for that satellite — the scan falls back
/// to exact evaluation everywhere, which is always correct.
struct SatelliteCullBounds {
  bool valid = false;
  double max_distance_km = 0.0;       ///< apogee + kCullRadialMarginKm
  double max_angular_rate_rad_s = 0.0;  ///< geocentric, Earth-fixed frame
};
[[nodiscard]] SatelliteCullBounds satellite_cull_bounds(const Sgp4& prop);

/// Observer-fixed quantities of the culling test: geocentric direction,
/// geocentric radius, and the angle between the geodetic vertical (which
/// defines elevation) and the geocentric one (which the cone test uses).
struct ObserverCullGeometry {
  Vec3 unit_ecef;
  double radius_km = 0.0;
  double vertical_deflection_rad = 0.0;
};
[[nodiscard]] ObserverCullGeometry observer_cull_geometry(
    const Geodetic& observer);

/// Half-angle (rad) of the geocentric cone around the observer outside of
/// which a satellite no farther than `max_distance_km` is provably below
/// `mask_deg`. Returns pi when culling cannot help (degenerate inputs or
/// a mask so low that the cone covers the whole sphere) — gamma can never
/// exceed pi, so a pi cone simply never culls.
[[nodiscard]] double horizon_cone_half_angle_rad(
    const ObserverCullGeometry& observer, double max_distance_km,
    double mask_deg);

/// One (satellite, observer) pair to scan, as indices into the engine's
/// satellite and observer arrays.
struct PairTask {
  std::size_t satellite = 0;
  std::size_t observer = 0;
};

struct EphemerisScanOptions {
  std::size_t chunk_samples = 4096;  ///< grid samples per table chunk
};

/// Run the shared-ephemeris scan for every pair; windows come back in
/// pair order, bit-identical to the per-pair scalar scan. Same-satellite
/// pairs walk the grid four observers at a time (one fused, certified
/// visibility test per sample); the table is filled by the
/// propagation_mode() kernel. Observers with a NaN mask use
/// opts.min_elevation_deg (see GridObserver). `threads` follows
/// predict_passes_grid semantics. Validates every argument (the span and
/// step as check_scan_span does) before returning early on no pairs.
[[nodiscard]] std::vector<std::vector<ContactWindow>> scan_pass_pairs(
    const std::vector<const Sgp4*>& satellites,
    const std::vector<GridObserver>& observers,
    const std::vector<PairTask>& pairs, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts = {},
    const EphemerisScanOptions& scan_opts = {}, unsigned threads = 0,
    obs::MetricsRegistry* metrics = nullptr);

/// Rolling-horizon shared-ephemeris store for the resident query service
/// (src/svc, `sinet serve`): per-satellite ECEF states over a window
/// [start_time(), end_time()] that advances incrementally. advance()
/// appends fixed-size grid chunks at the leading edge and retires wholly
/// expired chunks at the trailing edge — the retained span is never
/// rescanned. Appended chunks continue the exact `jd += step_days` float
/// accumulation from the last retained sample, so the retained grid
/// times are bitwise what a fresh ScanGrid over the same span would
/// produce, and scan_satellite windows are bit-identical to
/// scan_pass_pairs over [start_time(), end_time()] (parity test:
/// test_ephemeris.cpp). Not internally synchronized: the service layer
/// serializes advance() against queries (svc::PassService uses a
/// shared_mutex — many concurrent scans, exclusive advance).
class RollingEphemeris {
 public:
  struct Options {
    double coarse_step_s = 30.0;       ///< grid step; queries must match
    std::size_t chunk_samples = 2048;  ///< grid samples per appended chunk
    /// Table fill kernel; no output depends on it.
    PropagationMode mode = propagation_mode();
  };
  struct AdvanceStats {
    std::size_t chunks_appended = 0;
    std::size_t chunks_retired = 0;
    std::uint64_t propagations = 0;
  };

  /// `satellites` are borrowed and must outlive the engine. The horizon
  /// starts empty at `anchor_jd`; call advance() to populate it. Throws
  /// std::invalid_argument on a non-finite anchor, a non-finite or
  /// nonpositive step, zero chunk_samples or a null propagator.
  RollingEphemeris(std::vector<const Sgp4*> satellites, JulianDate anchor_jd,
                   const Options& opts);
  ~RollingEphemeris();
  RollingEphemeris(const RollingEphemeris&) = delete;
  RollingEphemeris& operator=(const RollingEphemeris&) = delete;

  /// Extend the leading edge chunk-by-chunk until end_time() covers
  /// `cover_until`, then retire leading chunks no longer needed to cover
  /// `retire_before` (the chunk containing retire_before is always kept,
  /// so queries at "now" stay answerable). `pool` non-null fans the
  /// per-satellite fills out across it. Throws std::invalid_argument on a
  /// non-finite `cover_until`, or on one where the step no longer moves
  /// the grid (check_scan_span at cover_until).
  AdvanceStats advance(JulianDate retire_before, JulianDate cover_until,
                       sim::ThreadPool* pool = nullptr);

  [[nodiscard]] bool empty() const noexcept { return chunks_.empty(); }
  [[nodiscard]] JulianDate anchor() const noexcept { return anchor_jd_; }
  /// First / last retained sample time. Throw when the horizon is empty.
  [[nodiscard]] JulianDate start_time() const;
  [[nodiscard]] JulianDate end_time() const;
  [[nodiscard]] std::size_t satellite_count() const noexcept {
    return satellites_.size();
  }
  [[nodiscard]] const Sgp4& satellite(std::size_t s) const {
    return *satellites_[s];
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }
  /// Retained samples = end_index() - base_index().
  [[nodiscard]] std::size_t sample_count() const noexcept {
    return next_index_ - base_index();
  }
  /// Absolute retained-sample index range [base_index(), end_index()).
  /// Indices are absolute since the anchor — they stay stable across
  /// retirement, which is what keeps cull skip-ahead clamps identical to
  /// a fresh scan's.
  [[nodiscard]] std::size_t base_index() const noexcept;
  [[nodiscard]] std::size_t end_index() const noexcept { return next_index_; }
  /// Grid time / satellite ECEF position / geocentric distance at
  /// absolute retained sample `k`; throw std::out_of_range outside
  /// [base_index(), end_index()).
  [[nodiscard]] JulianDate sample_time(std::size_t k) const;
  [[nodiscard]] const Vec3& sample_position_ecef_km(std::size_t s,
                                                    std::size_t k) const;
  [[nodiscard]] double sample_distance_km(std::size_t s, std::size_t k) const;
  /// Retained sample nearest `jd` (clamped to the horizon; nearest up to
  /// the sub-microsecond float-accumulation drift of the grid).
  [[nodiscard]] std::size_t nearest_index(JulianDate jd) const;

  /// SGP4 propagations performed across all advances (retirement frees
  /// memory but never un-counts work).
  [[nodiscard]] std::uint64_t propagations() const noexcept {
    return propagations_;
  }
  /// Approximate bytes held by the retained grid + ephemeris tables.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Scan one satellite against one observer over the whole retained
  /// horizon. Windows are bit-identical to scan_pass_pairs over
  /// [start_time(), end_time()]. A NaN observer mask falls back to
  /// opts.min_elevation_deg. Throws std::invalid_argument when
  /// opts.coarse_step_s differs from the rolling grid step (a silently
  /// different grid would break the parity contract), std::logic_error
  /// on an empty horizon.
  [[nodiscard]] std::vector<ContactWindow> scan_satellite(
      std::size_t satellite, const GridObserver& observer,
      const PassPredictionOptions& opts) const;
  /// All satellites against one observer; result indexed by satellite.
  [[nodiscard]] std::vector<std::vector<ContactWindow>> scan_observer(
      const GridObserver& observer, const PassPredictionOptions& opts) const;

  /// The answer to "when does the next satellite rise over this site".
  struct NextPass {
    bool found = false;
    std::size_t satellite = 0;
    ContactWindow window{};
  };

  /// Among each satellite's first scan_satellite window whose LOS is
  /// after `after_jd`, the one with the earliest AOS, ties going to the
  /// lowest satellite index; the window is bit-identical to that scan's.
  /// A bounded search, not a scan: each satellite's walk starts at the
  /// last grid sample at or before `after_jd` (stepping back to the start
  /// of a pass in progress) and stops once its earliest possible AOS is
  /// above the best one bracketed so far; then only the windows that can
  /// still win are refined. Its cost depends on neither the retained
  /// history nor the lookahead. Throws like scan_satellite, and
  /// std::invalid_argument on a NaN `after_jd`.
  [[nodiscard]] NextPass next_pass(const GridObserver& observer,
                                   const PassPredictionOptions& opts,
                                   JulianDate after_jd) const;

 private:
  struct Chunk;

  void append_chunk(sim::ThreadPool* pool, AdvanceStats* stats);
  [[nodiscard]] const Chunk& chunk_for(std::size_t k) const;
  /// Throws unless a query with `opts` can run on this horizon.
  void check_query(const PassPredictionOptions& opts) const;

  std::vector<const Sgp4*> satellites_;
  Options opts_;
  JulianDate anchor_jd_;
  double step_days_;
  std::vector<SatelliteCullBounds> bounds_;
  std::deque<std::unique_ptr<Chunk>> chunks_;
  std::size_t base_chunk_ = 0;  ///< absolute chunk number of chunks_[0]
  std::size_t next_index_ = 0;  ///< absolute sample index of the next append
  JulianDate last_time_ = 0.0;  ///< last appended sample time
  std::uint64_t propagations_ = 0;
};

}  // namespace sinet::orbit

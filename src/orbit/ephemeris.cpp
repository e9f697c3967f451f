#include "orbit/ephemeris.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/frames.h"
#include "orbit/look_angles.h"
#include "orbit/pair_scan.h"
#include "orbit/simd.h"
#include "orbit/tle.h"
#include "sim/thread_pool.h"

namespace sinet::orbit {

namespace {

PropagationMode mode_from_env() {
  const char* env = std::getenv("SINET_PROPAGATION_MODE");
  if (env == nullptr) return PropagationMode::kReference;
  try {
    return parse_propagation_mode(env);
  } catch (const std::invalid_argument&) {
    // Env misconfiguration must not crash static init; the safe default
    // is the bit-identical reference path.
    return PropagationMode::kReference;
  }
}

std::atomic<PropagationMode>& global_mode() {
  static std::atomic<PropagationMode> mode{mode_from_env()};
  return mode;
}

}  // namespace

PropagationMode propagation_mode() noexcept {
  return global_mode().load(std::memory_order_relaxed);
}

void set_propagation_mode(PropagationMode mode) noexcept {
  global_mode().store(mode, std::memory_order_relaxed);
}

PropagationMode parse_propagation_mode(std::string_view name) {
  if (name == "reference" || name == "scalar")
    return PropagationMode::kReference;
  if (name == "fast" || name == "simd") return PropagationMode::kFast;
  throw std::invalid_argument("parse_propagation_mode: unknown mode '" +
                              std::string(name) +
                              "' (expected 'reference' or 'fast')");
}

const char* propagation_mode_name(PropagationMode mode) noexcept {
  return mode == PropagationMode::kFast ? "fast" : "reference";
}

void check_scan_span(const char* caller, JulianDate jd_start,
                     JulianDate jd_end, double coarse_step_s) {
  const auto fail = [&](const char* what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (!std::isfinite(jd_start) || !std::isfinite(jd_end))
    fail("non-finite span");
  if (jd_end < jd_start) fail("jd_end < jd_start");
  if (!std::isfinite(coarse_step_s)) fail("non-finite step");
  if (coarse_step_s <= 0.0) fail("nonpositive step");
}

ScanGrid::ScanGrid(JulianDate jd_start, JulianDate jd_end,
                   double coarse_step_s) {
  check_scan_span("ScanGrid", jd_start, jd_end, coarse_step_s);
  start_ = jd_start;
  end_ = jd_end;
  step_s_ = coarse_step_s;
  step_days_ = coarse_step_s / kSecondsPerDay;
  // The float accumulation (jd += step_days) with its clamp, NOT
  // jd_start + k * step: a per-pair scan steps through these times.
  times_.push_back(jd_start);
  for (JulianDate jd = jd_start + step_days_;; jd += step_days_) {
    const JulianDate t = std::min(jd, jd_end);
    times_.push_back(t);
    if (t >= jd_end) break;
  }
}

ScanGrid::ScanGrid(std::vector<JulianDate> times, double coarse_step_s)
    : times_(std::move(times)) {
  if (times_.empty())
    throw std::invalid_argument("ScanGrid: empty sample times");
  check_scan_span("ScanGrid", times_.front(), times_.back(), coarse_step_s);
  start_ = times_.front();
  end_ = times_.back();
  step_s_ = coarse_step_s;
  step_days_ = coarse_step_s / kSecondsPerDay;
}

EphemerisTable::EphemerisTable(const std::vector<const Sgp4*>& satellites,
                               const ScanGrid& grid, PropagationMode mode)
    : satellites_(&satellites), grid_(&grid), mode_(mode) {
  if (mode_ == PropagationMode::kFast && !satellites.empty())
    batch_ = std::make_unique<Sgp4Batch>(satellites);
}

void EphemerisTable::build(std::size_t first, std::size_t count,
                           sim::ThreadPool* pool,
                           const std::vector<std::size_t>* row_start) {
  built_first_ = first;
  built_count_ = count;
  const std::size_t chunk_end = first + count;
  // One GMST per timestep, shared by every satellite's rotation.
  gmst_.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    gmst_[i] = gmst_rad(grid_->time(first + i));

  const std::size_t n = satellites_->size();
  positions_.resize(n * count);
  distances_.resize(n * count);

  const auto row_begin = [&](std::size_t s) {
    return row_start == nullptr ? first : std::max(first, (*row_start)[s]);
  };
  const auto fill_row = [&](std::size_t s) {
    const std::size_t begin = row_begin(s);
    if (begin >= chunk_end) return;  // satellite not needed this chunk
    const Sgp4& prop = *(*satellites_)[s];
    Vec3* pos = &positions_[s * count];
    double* dist = &distances_[s * count];
    for (std::size_t k = begin; k < chunk_end; ++k) {
      const TemeState st = prop.at_jd(grid_->time(k));
      const Vec3 p = teme_to_ecef_position_gmst(st.position_km,
                                                gmst_[k - first]);
      pos[k - first] = p;
      dist[k - first] = p.norm();
    }
  };

  // kFast: four satellite rows per lane group, one batched propagation +
  // shared-GMST rotation per column. The group starts at the earliest
  // row_start of its members — trailing members get (harmless) extra
  // samples, which costs nothing because the column is computed for the
  // whole group anyway.
  const auto group_begin = [&](std::size_t g) {
    const std::size_t lane0 = g * Sgp4Batch::kLaneWidth;
    const std::size_t members = batch_->group_members(g);
    std::size_t begin = chunk_end;
    for (std::size_t l = 0; l < members; ++l)
      begin = std::min(begin, row_begin(lane0 + l));
    return begin;
  };
  const auto fill_group = [&](std::size_t g) {
    const std::size_t begin = group_begin(g);
    if (begin >= chunk_end) return;  // no member needed this chunk
    const std::size_t lane0 = g * Sgp4Batch::kLaneWidth;
    const std::size_t members = batch_->group_members(g);
    double x[Sgp4Batch::kLaneWidth], y[Sgp4Batch::kLaneWidth];
    double z[Sgp4Batch::kLaneWidth], d[Sgp4Batch::kLaneWidth];
    LaneStatus status[Sgp4Batch::kLaneWidth];
    for (std::size_t k = begin; k < chunk_end; ++k) {
      const JulianDate t = grid_->time(k);
      const double gmst = gmst_[k - first];
      const bool ok =
          batch_->propagate_group_ecef(g, t, gmst, x, y, z, d, status);
      for (std::size_t l = 0; l < members; ++l) {
        const std::size_t s = lane0 + l;
        if (ok || status[l] == LaneStatus::kOk) {
          positions_[s * count + (k - first)] = Vec3{x[l], y[l], z[l]};
          distances_[s * count + (k - first)] = d[l];
        } else {
          // The scalar propagator either throws the typed
          // PropagationError the reference path would have surfaced, or
          // (near-threshold disagreement) supplies a valid state.
          simd_scalar_fallbacks_.fetch_add(1, std::memory_order_relaxed);
          const TemeState st = (*satellites_)[s]->at_jd(t);
          const Vec3 p = teme_to_ecef_position_gmst(st.position_km, gmst);
          positions_[s * count + (k - first)] = p;
          distances_[s * count + (k - first)] = p.norm();
        }
      }
    }
  };

  const bool fast = mode_ == PropagationMode::kFast && batch_ != nullptr;
  const std::size_t work_items = fast ? batch_->groups() : n;
  if (fast) {
    if (pool != nullptr && work_items > 1) {
      pool->parallel_for(work_items, fill_group);
    } else {
      for (std::size_t g = 0; g < work_items; ++g) fill_group(g);
    }
    for (std::size_t g = 0; g < batch_->groups(); ++g) {
      const std::size_t begin = group_begin(g);
      if (begin >= chunk_end) continue;
      const std::uint64_t filled = static_cast<std::uint64_t>(
          batch_->group_members(g) * (chunk_end - begin));
      propagations_ += filled;
      simd_lanes_filled_ += filled;
    }
  } else {
    if (pool != nullptr && work_items > 1) {
      pool->parallel_for(work_items, fill_row);
    } else {
      for (std::size_t s = 0; s < n; ++s) fill_row(s);
    }
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t begin = row_begin(s);
      if (begin < chunk_end) propagations_ += chunk_end - begin;
    }
  }
}

SatelliteCullBounds satellite_cull_bounds(const Sgp4& prop) {
  SatelliteCullBounds b;
  const double a_km = prop.semi_major_axis_er() * kEarthRadiusKm;
  const double e = prop.eccentricity();
  if (!(a_km > 0.0) || !(e >= 0.0) || e >= 1.0) return b;
  const double r_apogee = a_km * (1.0 + e) + kCullRadialMarginKm;
  const double r_perigee = a_km * (1.0 - e) - kCullRadialMarginKm;
  // Culling buys nothing (and the rate bound degenerates) for orbits
  // that graze the surface; leave it off and scan exactly.
  if (!(r_perigee > 0.5 * kEarthRadiusKm)) return b;
  // Vis-viva at the (margin-lowered) perigee bounds the inertial speed;
  // dividing by the same perigee radius bounds the geocentric angular
  // rate. Earth rotation adds at most its full rate in the fixed frame.
  const double v_sq = kMuEarthKm3PerS2 * (2.0 / r_perigee - 1.0 / a_km);
  if (!(v_sq > 0.0)) return b;
  b.max_distance_km = r_apogee;
  b.max_angular_rate_rad_s =
      kCullRateSafety * std::sqrt(v_sq) / r_perigee + kEarthRotationRadPerSec;
  b.valid = true;
  return b;
}

ObserverCullGeometry observer_cull_geometry(const Geodetic& observer) {
  const TopocentricFrame frame(observer);
  ObserverCullGeometry g;
  g.radius_km = frame.obs_ecef_km.norm();
  g.unit_ecef = g.radius_km > 0.0 ? frame.obs_ecef_km * (1.0 / g.radius_km)
                                  : Vec3{0.0, 0.0, 1.0};
  // Angle between the geodetic vertical (defines the elevation mask) and
  // the geocentric direction the cone test measures against; <= ~0.2 deg
  // anywhere on WGS-84.
  const Vec3 up{frame.cos_lat * frame.cos_lon, frame.cos_lat * frame.sin_lon,
                frame.sin_lat};
  g.vertical_deflection_rad =
      std::acos(std::clamp(up.dot(g.unit_ecef), -1.0, 1.0));
  return g;
}

double horizon_cone_half_angle_rad(const ObserverCullGeometry& observer,
                                   double max_distance_km, double mask_deg) {
  if (!(max_distance_km > 0.0) || !(observer.radius_km > 0.0)) return kPi;
  // Effective mask: the geodetic mask lowered by the vertical deflection
  // (so the geocentric test is conservative for the geodetic elevation)
  // and by the float-error pad.
  const double eps = mask_deg * kDegToRad - observer.vertical_deflection_rad -
                     kCullAngularPadRad;
  if (!(eps > -0.5 * kPi)) return kPi;
  // At geocentric separation gamma and distance d <= d_max, the elevation
  // above the geocentric horizon satisfies
  //   sin(el_geo) = (d cos(gamma) - R_o) / |d_vec - o_vec|,
  // monotone decreasing in gamma and increasing in d. Solving
  // el_geo = eps at d = d_max for gamma:
  const double arg =
      std::clamp(observer.radius_km / max_distance_km * std::cos(eps), -1.0,
                 1.0);
  const double gamma = std::acos(arg) - eps;
  if (!std::isfinite(gamma)) return kPi;
  return std::clamp(gamma, 0.0, kPi);
}

namespace {

/// Scan state of one (satellite, observer) pair — shared with the
/// rolling-horizon engine via orbit/pair_scan.h so both walk the grid
/// with literally the same code.
using PairScan = PairScanState;

/// Adapts one {grid, table} chunk pair to the PairScanState view
/// concept. Indices are absolute grid samples in both members, so the
/// adapter is a pure pass-through.
struct GridTableView {
  const ScanGrid* grid;
  const EphemerisTable* table;
  [[nodiscard]] JulianDate time(std::size_t k) const { return grid->time(k); }
  [[nodiscard]] const Vec3& position(std::size_t s, std::size_t k) const {
    return table->position_ecef_km(s, k);
  }
  [[nodiscard]] double distance(std::size_t s, std::size_t k) const {
    return table->distance_km(s, k);
  }
};

/// kFast scan unit: up to simd::kLanes pairs sharing one satellite, all
/// observer-side constants transposed into lane arrays. The lanes scan
/// in lockstep (one next_k for the block) so one table lookup + one
/// fused kernel evaluation serves every observer; per-lane window state
/// and statistics stay in the lanes' PairScan entries, which keeps the
/// finalize/metrics plumbing identical to the reference path. Pad lanes
/// replicate lane 0 and are never read back.
struct FastBlock {
  std::size_t sat = 0;
  std::size_t lanes = 0;
  std::array<std::size_t, simd::kLanes> pair{};
  TopocentricFrameSoA frames;
  simd::Vd sin_mask;        // sin(elevation mask)
  simd::Vd ux, uy, uz;      // observer geocentric unit vectors
  simd::Vd cos_vis;         // cos(gamma_vis); -1 = lane never culls
  simd::Vd inv_omega_step;  // 1 / (omega_max * coarse_step_s)
  bool init_done = false;
  std::size_t next_k = 1;
};

}  // namespace

std::vector<std::vector<ContactWindow>> scan_pass_pairs(
    const std::vector<const Sgp4*>& satellites,
    const std::vector<GridObserver>& observers,
    const std::vector<PairTask>& pairs, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts,
    const EphemerisScanOptions& scan_opts, unsigned threads,
    obs::MetricsRegistry* metrics) {
  check_scan_span("scan_pass_pairs", jd_start, jd_end, opts.coarse_step_s);
  if (scan_opts.chunk_samples == 0)
    throw std::invalid_argument("scan_pass_pairs: zero chunk_samples");
  for (const Sgp4* sat : satellites)
    if (sat == nullptr)
      throw std::invalid_argument("scan_pass_pairs: null propagator");
  for (const PairTask& p : pairs)
    if (p.satellite >= satellites.size() || p.observer >= observers.size())
      throw std::out_of_range("scan_pass_pairs: pair index out of range");

  obs::ScopedTimer timer(
      metrics == nullptr
          ? nullptr
          : &metrics->histogram("orbit.ephemeris.scan_latency_ms", 0.0,
                                10000.0, 50));
  if (metrics != nullptr) {
    metrics->counter("orbit.ephemeris.scans").add(1);
    metrics->counter("orbit.ephemeris.pairs").add(pairs.size());
  }

  std::vector<std::vector<ContactWindow>> out(pairs.size());
  if (pairs.empty()) return out;

  const ScanGrid grid(jd_start, jd_end, opts.coarse_step_s);
  const std::size_t total = grid.size();
  const double step_days = grid.step_days();
  const double step_s = grid.step_s();

  std::vector<SatelliteCullBounds> bounds(satellites.size());
  for (std::size_t s = 0; s < satellites.size(); ++s)
    bounds[s] = satellite_cull_bounds(*satellites[s]);

  std::vector<ObserverCullGeometry> geometry(observers.size());
  std::vector<double> masks(observers.size());
  for (std::size_t o = 0; o < observers.size(); ++o) {
    masks[o] = std::isnan(observers[o].min_elevation_deg)
                   ? opts.min_elevation_deg
                   : observers[o].min_elevation_deg;
    geometry[o] = observer_cull_geometry(observers[o].location);
  }

  std::vector<PairScan> scans;
  scans.reserve(pairs.size());
  for (const PairTask& p : pairs)
    scans.emplace_back(*satellites[p.satellite],
                       observers[p.observer].location, masks[p.observer],
                       pair_cull(bounds[p.satellite], geometry[p.observer],
                                 masks[p.observer]),
                       p.satellite);

  sim::ThreadPool* pool = nullptr;
  std::optional<sim::ThreadPool> local;
  if (threads != 1 && pairs.size() > 1) {
    sim::ThreadPool& shared = sim::ThreadPool::shared();
    if (threads == 0 || threads == shared.size()) {
      pool = &shared;
    } else {
      local.emplace(threads);
      pool = &*local;
    }
  }

  const PropagationMode mode = scan_opts.mode;
  EphemerisTable table(satellites, grid, mode);

  // kFast: fuse each satellite's pairs into observer lane blocks.
  std::vector<FastBlock> blocks;
  if (mode == PropagationMode::kFast) {
    std::vector<std::vector<std::size_t>> by_sat(satellites.size());
    for (std::size_t i = 0; i < scans.size(); ++i)
      by_sat[scans[i].sat].push_back(i);
    for (std::size_t s = 0; s < by_sat.size(); ++s) {
      const std::vector<std::size_t>& members = by_sat[s];
      for (std::size_t b0 = 0; b0 < members.size(); b0 += simd::kLanes) {
        FastBlock b;
        b.sat = s;
        b.lanes = std::min(simd::kLanes, members.size() - b0);
        std::array<const TopocentricFrame*, simd::kLanes> frames{};
        for (std::size_t l = 0; l < simd::kLanes; ++l) {
          const std::size_t i = members[b0 + (l < b.lanes ? l : 0)];
          const PairScan& p = scans[i];
          b.pair[l] = i;
          frames[l] = &p.sampler.frame();
          b.sin_mask[l] = std::sin(p.mask_deg * kDegToRad);
          const PairCull& cull = p.cull_test;
          b.ux[l] = cull.geometry->unit_ecef.x;
          b.uy[l] = cull.geometry->unit_ecef.y;
          b.uz[l] = cull.geometry->unit_ecef.z;
          b.cos_vis[l] = cull.enabled ? std::cos(cull.gamma_vis_rad) : -1.0;
          b.inv_omega_step[l] =
              cull.enabled ? 1.0 / (cull.omega_max_rad_s * step_s) : 0.0;
        }
        b.frames = pack_topocentric_frames(frames.data(), b.lanes);
        blocks.push_back(b);
      }
    }
  }

  constexpr std::size_t kUnused = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> row_start(satellites.size());
  std::vector<std::size_t> active;
  active.reserve(mode == PropagationMode::kFast ? blocks.size()
                                                : scans.size());

  for (std::size_t first = 0; first < total;
       first += scan_opts.chunk_samples) {
    const std::size_t count = std::min(scan_opts.chunk_samples, total - first);
    const std::size_t chunk_end = first + count;

    active.clear();
    std::fill(row_start.begin(), row_start.end(), kUnused);
    if (mode == PropagationMode::kFast) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const FastBlock& b = blocks[i];
        const std::size_t from = b.init_done ? b.next_k : first;
        if (from >= chunk_end) continue;
        active.push_back(i);
        row_start[b.sat] = std::min(row_start[b.sat], from);
      }
    } else {
      for (std::size_t i = 0; i < scans.size(); ++i) {
        const PairScan& p = scans[i];
        // Every pair visits sample 0 (init) in the first chunk;
        // afterwards a pair is active only if its next sample lands in
        // this chunk — culling can have jumped it clean past it.
        const std::size_t from = p.init_done ? p.next_k : first;
        if (from >= chunk_end) continue;
        active.push_back(i);
        row_start[p.sat] = std::min(row_start[p.sat], from);
      }
    }
    if (active.empty()) continue;

    table.build(first, count, pool, &row_start);
    const GridTableView view{&grid, &table};

    // kFast: one table lookup + one fused kernel per block sample; the
    // cull compare and skip margin live in the cosine domain (acos is
    // 1-Lipschitz-inverse, so gamma - gamma_vis >= cos(gamma_vis) -
    // cos(gamma) — a conservative lower bound needing no arccosine).
    const auto scan_block = [&](std::size_t a) {
      FastBlock& b = blocks[active[a]];
      if (!b.init_done) {
        simd::Vi vis0{0, 0, 0, 0};
        fused_visibility(b.frames, table.position_ecef_km(b.sat, 0),
                         b.sin_mask, &vis0);
        for (std::size_t l = 0; l < b.lanes; ++l)
          scans[b.pair[l]].record_init(vis0[l] != 0, grid.time(0));
        b.init_done = true;
      }
      while (b.next_k < chunk_end) {
        const std::size_t k = b.next_k;
        const JulianDate t = grid.time(k);
        const Vec3& pos = table.position_ecef_km(b.sat, k);
        const double inv_d = 1.0 / table.distance_km(b.sat, k);
        const simd::Vd cos_gamma =
            (simd::broadcast(pos.x) * b.ux + simd::broadcast(pos.y) * b.uy +
             simd::broadcast(pos.z) * b.uz) *
            simd::broadcast(inv_d);
        const simd::Vi culled = cos_gamma < b.cos_vis;

        std::size_t advance = 1;
        simd::Vi vis_mask{0, 0, 0, 0};
        if (simd::all(culled)) {
          // Every lane provably below its mask: jump by the weakest
          // lane's margin (each lane is guaranteed invisible at least
          // that long, so no transition can hide inside the skip).
          const simd::Vd steps = (b.cos_vis - cos_gamma) * b.inv_omega_step;
          double min_steps = steps[0];
          for (std::size_t l = 1; l < b.lanes; ++l)
            min_steps = std::min(min_steps, steps[l]);
          if (min_steps > 1.0)
            advance = std::min(static_cast<std::size_t>(min_steps),
                               total - k);
        } else {
          fused_visibility(b.frames, pos, b.sin_mask, &vis_mask);
          vis_mask &= ~culled;
        }

        for (std::size_t l = 0; l < b.lanes; ++l) {
          PairScan& p = scans[b.pair[l]];
          ++p.visited;
          p.culled += advance - 1;
          if (culled[l] != 0)
            ++p.cull_decisions;
          else
            ++p.exact_evals;
          p.record_sample(vis_mask[l] != 0, t, step_days,
                          opts.refine_tolerance_s);
        }
        b.next_k = k + advance;
      }
    };

    const auto scan_one = [&](std::size_t a) {
      PairScan& p = scans[active[a]];
      // Sample 0 (init), then the shared grid walk from pair_scan.h.
      if (!p.init_done) p.init(view, 0);
      p.scan(view, chunk_end, total, step_days, step_s,
             opts.refine_tolerance_s);
    };
    if (mode == PropagationMode::kFast) {
      if (pool != nullptr && active.size() > 1) {
        pool->parallel_for(active.size(), scan_block);
      } else {
        for (std::size_t a = 0; a < active.size(); ++a) scan_block(a);
      }
    } else {
      if (pool != nullptr && active.size() > 1) {
        pool->parallel_for(active.size(), scan_one);
      } else {
        for (std::size_t a = 0; a < active.size(); ++a) scan_one(a);
      }
    }
  }

  // Windows still open at jd_end: truncate them there.
  const auto finalize_one = [&](std::size_t i) { scans[i].finalize(jd_end); };
  if (pool != nullptr) {
    pool->parallel_for(scans.size(), finalize_one);
  } else {
    for (std::size_t i = 0; i < scans.size(); ++i) finalize_one(i);
  }

  if (metrics != nullptr) {
    std::uint64_t visited = 0, culled = 0, cull_decisions = 0, exact = 0;
    for (const PairScan& p : scans) {
      visited += p.visited;
      culled += p.culled;
      cull_decisions += p.cull_decisions;
      exact += p.exact_evals;
    }
    const std::uint64_t done = table.propagations();
    const std::uint64_t naive =
        static_cast<std::uint64_t>(pairs.size()) * total;
    metrics->counter("orbit.ephemeris.propagations").add(done);
    metrics->counter("orbit.ephemeris.propagations_avoided")
        .add(naive > done ? naive - done : 0);
    metrics->counter("orbit.ephemeris.samples_visited").add(visited);
    metrics->counter("orbit.ephemeris.samples_culled").add(culled);
    metrics->counter("orbit.ephemeris.cull_decisions").add(cull_decisions);
    metrics->counter("orbit.ephemeris.exact_elevations").add(exact);
    metrics->gauge("orbit.simd.mode")
        .set(mode == PropagationMode::kFast ? 1.0 : 0.0);
    if (mode == PropagationMode::kFast) {
      metrics->counter("orbit.simd.lanes_filled")
          .add(table.simd_lanes_filled());
      metrics->counter("orbit.simd.scalar_fallbacks")
          .add(table.simd_scalar_fallbacks());
    }
  }

  for (std::size_t i = 0; i < scans.size(); ++i)
    out[i] = std::move(scans[i].windows);
  return out;
}

/// One retained horizon segment: its slice of the rolling grid plus the
/// shared ephemeris over it, built eagerly at append time. `first` is
/// the absolute index of grid sample 0 (chunk boundaries are always
/// multiples of chunk_samples, so absolute -> chunk lookup is a divide).
struct RollingEphemeris::Chunk {
  Chunk(const std::vector<const Sgp4*>& satellites,
        std::vector<JulianDate> times, double step_s, std::size_t first_abs,
        PropagationMode mode, sim::ThreadPool* pool)
      : grid(std::move(times), step_s), table(satellites, grid, mode),
        first(first_abs) {
    table.build(0, grid.size(), pool);
  }

  ScanGrid grid;
  EphemerisTable table;
  std::size_t first;
};

namespace {

/// Adapts the retained chunk deque to the PairScanState view concept:
/// absolute sample index -> owning chunk -> local table lookup.
struct RollingView {
  const RollingEphemeris* engine;
  [[nodiscard]] JulianDate time(std::size_t k) const {
    return engine->sample_time(k);
  }
  [[nodiscard]] const Vec3& position(std::size_t s, std::size_t k) const {
    return engine->sample_position_ecef_km(s, k);
  }
  [[nodiscard]] double distance(std::size_t s, std::size_t k) const {
    return engine->sample_distance_km(s, k);
  }
};

}  // namespace

RollingEphemeris::RollingEphemeris(std::vector<const Sgp4*> satellites,
                                   JulianDate anchor_jd, const Options& opts)
    : satellites_(std::move(satellites)), opts_(opts), anchor_jd_(anchor_jd),
      step_days_(opts.coarse_step_s / kSecondsPerDay) {
  check_scan_span("RollingEphemeris", anchor_jd, anchor_jd,
                  opts_.coarse_step_s);
  if (opts_.chunk_samples == 0)
    throw std::invalid_argument("RollingEphemeris: zero chunk_samples");
  for (const Sgp4* sat : satellites_)
    if (sat == nullptr)
      throw std::invalid_argument("RollingEphemeris: null propagator");
  bounds_.resize(satellites_.size());
  for (std::size_t s = 0; s < satellites_.size(); ++s)
    bounds_[s] = satellite_cull_bounds(*satellites_[s]);
}

RollingEphemeris::~RollingEphemeris() = default;

void RollingEphemeris::append_chunk(sim::ThreadPool* pool,
                                    AdvanceStats* stats) {
  std::vector<JulianDate> times;
  times.reserve(opts_.chunk_samples);
  if (next_index_ == 0) {
    last_time_ = anchor_jd_;
    times.push_back(anchor_jd_);
  }
  // The exact accumulation a fresh full-span ScanGrid performs — NOT
  // anchor + k * step. Continuing it from the last retained sample is
  // what makes retained times bitwise equal to a fresh grid's.
  JulianDate jd = last_time_;
  while (times.size() < opts_.chunk_samples) {
    jd += step_days_;
    times.push_back(jd);
  }
  last_time_ = jd;
  const std::size_t first_abs = next_index_;
  next_index_ += times.size();
  auto chunk = std::make_unique<Chunk>(satellites_, std::move(times),
                                       opts_.coarse_step_s, first_abs,
                                       opts_.mode, pool);
  propagations_ += chunk->table.propagations();
  if (stats != nullptr) {
    ++stats->chunks_appended;
    stats->propagations += chunk->table.propagations();
  }
  chunks_.push_back(std::move(chunk));
}

RollingEphemeris::AdvanceStats RollingEphemeris::advance(
    JulianDate retire_before, JulianDate cover_until, sim::ThreadPool* pool) {
  // An infinite leading edge would append chunks until memory runs out.
  if (!std::isfinite(cover_until))
    throw std::invalid_argument("RollingEphemeris: non-finite cover_until");
  AdvanceStats stats;
  while (chunks_.empty() || last_time_ < cover_until)
    append_chunk(pool, &stats);
  // Retire from the trailing edge: the front chunk goes once the NEXT
  // chunk still covers retire_before, so the horizon never loses "now".
  while (chunks_.size() > 1 && chunks_[1]->grid.start() <= retire_before) {
    chunks_.pop_front();
    ++base_chunk_;
    ++stats.chunks_retired;
  }
  return stats;
}

JulianDate RollingEphemeris::start_time() const {
  if (chunks_.empty())
    throw std::logic_error("RollingEphemeris: empty horizon");
  return chunks_.front()->grid.start();
}

JulianDate RollingEphemeris::end_time() const {
  if (chunks_.empty())
    throw std::logic_error("RollingEphemeris: empty horizon");
  return chunks_.back()->grid.end();
}

std::size_t RollingEphemeris::base_index() const noexcept {
  return chunks_.empty() ? next_index_ : chunks_.front()->first;
}

const RollingEphemeris::Chunk& RollingEphemeris::chunk_for(
    std::size_t k) const {
  if (k < base_index() || k >= next_index_)
    throw std::out_of_range("RollingEphemeris: sample index outside horizon");
  return *chunks_[k / opts_.chunk_samples - base_chunk_];
}

JulianDate RollingEphemeris::sample_time(std::size_t k) const {
  const Chunk& c = chunk_for(k);
  return c.grid.time(k - c.first);
}

const Vec3& RollingEphemeris::sample_position_ecef_km(std::size_t s,
                                                      std::size_t k) const {
  const Chunk& c = chunk_for(k);
  return c.table.position_ecef_km(s, k - c.first);
}

double RollingEphemeris::sample_distance_km(std::size_t s,
                                            std::size_t k) const {
  const Chunk& c = chunk_for(k);
  return c.table.distance_km(s, k - c.first);
}

std::size_t RollingEphemeris::nearest_index(JulianDate jd) const {
  const std::size_t base = base_index();
  if (jd <= start_time()) return base;
  if (jd >= last_time_) return next_index_ - 1;
  const double offset = (jd - start_time()) / step_days_;
  return std::min(base + static_cast<std::size_t>(offset + 0.5),
                  next_index_ - 1);
}

std::size_t RollingEphemeris::resident_bytes() const noexcept {
  const std::size_t n = satellites_.size();
  std::size_t bytes = 0;
  for (const auto& c : chunks_) {
    const std::size_t m = c->grid.size();
    bytes += m * sizeof(JulianDate)                 // grid times
             + m * sizeof(double)                   // shared GMST
             + n * m * (sizeof(Vec3) + sizeof(double));  // positions+dists
  }
  return bytes;
}

void RollingEphemeris::check_query(const PassPredictionOptions& opts) const {
  if (chunks_.empty())
    throw std::logic_error(
        "RollingEphemeris: scan on empty horizon (advance() first)");
  if (opts.coarse_step_s != opts_.coarse_step_s)
    throw std::invalid_argument(
        "RollingEphemeris: query coarse_step_s must match the rolling grid");
}

std::vector<ContactWindow> RollingEphemeris::scan_satellite(
    std::size_t satellite, const GridObserver& observer,
    const PassPredictionOptions& opts) const {
  if (satellite >= satellites_.size())
    throw std::out_of_range("RollingEphemeris: satellite index out of range");
  check_query(opts);

  const double mask = std::isnan(observer.min_elevation_deg)
                          ? opts.min_elevation_deg
                          : observer.min_elevation_deg;
  const ObserverCullGeometry geometry =
      observer_cull_geometry(observer.location);
  PairScanState p(*satellites_[satellite], observer.location, mask,
                  pair_cull(bounds_[satellite], geometry, mask), satellite);
  const RollingView view{this};
  const std::size_t end = next_index_;
  p.init(view, base_index());
  p.scan(view, end, end, step_days_, opts_.coarse_step_s,
         opts.refine_tolerance_s);
  p.finalize(end_time());
  return std::move(p.windows);
}

std::vector<std::vector<ContactWindow>> RollingEphemeris::scan_observer(
    const GridObserver& observer, const PassPredictionOptions& opts) const {
  std::vector<std::vector<ContactWindow>> out(satellites_.size());
  for (std::size_t s = 0; s < satellites_.size(); ++s)
    out[s] = scan_satellite(s, observer, opts);
  return out;
}

// Why a bounded walk gives scan_satellite's bits. A window of the full
// scan is a maximal run of visible grid samples. Its AOS is the crossing
// refined between time(rise) - step and time(rise), rise being the run's
// first visible sample, or exactly start_time() when the run is open
// there; its LOS is the crossing at the first invisible sample after the
// run, or exactly end_time(). Culling only skips samples proven below the
// mask, so a walk started anywhere meets each run at those same two
// samples. And the bisection only narrows its bracket, so a refined
// crossing lies in [time(k) - step, time(k)] before it is computed.
RollingEphemeris::NextPass RollingEphemeris::next_pass(
    const GridObserver& observer, const PassPredictionOptions& opts,
    JulianDate after_jd) const {
  check_query(opts);
  if (std::isnan(after_jd))
    throw std::invalid_argument("RollingEphemeris: NaN next_pass time");

  const double mask = std::isnan(observer.min_elevation_deg)
                          ? opts.min_elevation_deg
                          : observer.min_elevation_deg;
  // One frame and one cull geometry per query, shared by every satellite.
  const TopocentricFrame frame(observer.location);
  const ObserverCullGeometry geometry =
      observer_cull_geometry(observer.location);
  const RollingView view{this};
  const std::size_t base = base_index();
  const std::size_t end = next_index_;
  const JulianDate h_start = start_time();
  const JulianDate h_end = end_time();

  const auto aos_lo = [&](std::size_t rise) {
    return rise == base ? h_start : sample_time(rise) - step_days_;
  };
  const auto crossing = [&](std::size_t sat, std::size_t k) {
    const JulianDate t = sample_time(k);
    return refine_mask_crossing(ElevationSampler(*satellites_[sat], frame),
                                t - step_days_, t, mask,
                                opts.refine_tolerance_s);
  };

  // Every walk starts at the last sample at or before after_jd, or at
  // the first sample when none is.
  std::size_t first = nearest_index(after_jd);
  while (first + 1 < end && sample_time(first + 1) <= after_jd) ++first;
  while (first > base && sample_time(first) > after_jd) --first;

  // Phase 1: bracket each satellite's first window ending after after_jd,
  // refining nothing but a LOS whose bracket holds after_jd.
  struct Candidate {
    std::size_t sat;
    std::size_t rise;  ///< first visible sample of the window's run
    std::size_t set;   ///< first invisible sample after it; `end` if open
    JulianDate aos_lo;
    std::optional<JulianDate> los;
  };
  std::vector<Candidate> candidates;
  JulianDate best_aos_hi = std::numeric_limits<JulianDate>::infinity();
  for (std::size_t s = 0; s < satellites_.size(); ++s) {
    const PairCull cull = pair_cull(bounds_[s], geometry, mask);
    const auto classify = [&](std::size_t k) {
      return classify_sample(view, s, k, end, opts_.coarse_step_s, frame,
                             mask, cull);
    };
    SampleVerdict v = classify(first);
    bool in_run = v.visible;
    std::size_t rise = first;
    std::size_t k = first + v.advance;
    if (in_run) {
      // A pass in progress at after_jd: back to the start of its run.
      while (rise > base && classify(rise - 1).visible) --rise;
      if (aos_lo(rise) > best_aos_hi) continue;
    }
    for (;;) {
      if (!in_run) {
        // Strict, so that a window that may tie the best AOS is kept.
        if (k >= end || aos_lo(k) > best_aos_hi) break;
        v = classify(k);
        if (v.visible) {
          in_run = true;
          rise = k;
        }
        k += v.advance;
        continue;
      }
      if (k < end) {
        v = classify(k);
        if (v.visible) {
          ++k;
          continue;
        }
      }
      // The run ends at sample k (k == end: open at the horizon end).
      std::optional<JulianDate> los;
      bool ends_after = k < end ? sample_time(k) - step_days_ > after_jd
                                : h_end > after_jd;
      if (!ends_after && k < end && sample_time(k) > after_jd) {
        los = crossing(s, k);
        ends_after = *los > after_jd;
      }
      if (ends_after) {
        candidates.push_back({s, rise, k, aos_lo(rise), los});
        best_aos_hi = std::min(best_aos_hi,
                               rise == base ? h_start : sample_time(rise));
        break;
      }
      if (k >= end) break;
      in_run = false;
      k += v.advance;
    }
  }

  // Phase 2: refine AOSs in order of their lower bounds until the next
  // bound exceeds the best refined AOS; exact ties go to the lower index.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.aos_lo != b.aos_lo ? a.aos_lo < b.aos_lo
                                          : a.sat < b.sat;
            });
  NextPass best;
  const Candidate* winner = nullptr;
  for (const Candidate& c : candidates) {
    if (winner != nullptr && c.aos_lo > best.window.aos_jd) break;
    const JulianDate aos = c.rise == base ? h_start : crossing(c.sat, c.rise);
    if (winner == nullptr || aos < best.window.aos_jd ||
        (aos == best.window.aos_jd && c.sat < winner->sat)) {
      winner = &c;
      best.window.aos_jd = aos;
    }
  }
  if (winner == nullptr) return best;

  best.found = true;
  best.satellite = winner->sat;
  ContactWindow& w = best.window;
  w.los_jd = winner->los    ? *winner->los
             : winner->set == end ? h_end
                                  : crossing(winner->sat, winner->set);
  const auto [tca, elev] = refine_max_elevation(
      ElevationSampler(*satellites_[winner->sat], frame), w.aos_jd, w.los_jd);
  w.tca_jd = tca;
  w.max_elevation_deg = elev;
  return best;
}

}  // namespace sinet::orbit

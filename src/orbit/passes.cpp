#include "orbit/passes.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "orbit/ephemeris.h"
#include "orbit/frames.h"
#include "orbit/sgp4_batch.h"

namespace sinet::orbit {

double ElevationSampler::elevation_deg(JulianDate jd) const {
  const TemeState st = prop_->at_jd(jd);
  const EcefState ecef =
      teme_to_ecef_state(st.position_km, st.velocity_km_s, jd);
  // Shared definition with the ephemeris-table scan (see look_angles.h):
  // both paths agreeing bit-for-bit is what keeps the table scan's
  // windows bit-identical to a per-pair scan built on this sampler.
  return elevation_from_ecef(frame_, ecef.position_km);
}

LookAngles ElevationSampler::look(JulianDate jd) const {
  const TemeState st = prop_->at_jd(jd);
  const EcefState ecef =
      teme_to_ecef_state(st.position_km, st.velocity_km_s, jd);
  return look_angles(frame_, ecef.position_km, ecef.velocity_km_s);
}

PassSample ElevationSampler::sample(JulianDate jd) const {
  const TemeState st = prop_->at_jd(jd);
  const EcefState ecef =
      teme_to_ecef_state(st.position_km, st.velocity_km_s, jd);
  PassSample s;
  s.jd = jd;
  s.look = look_angles(frame_, ecef.position_km, ecef.velocity_km_s);
  s.subsatellite_point = ecef_to_geodetic(ecef.position_km);
  return s;
}

namespace {

// One point of a refinement search: its time, the lane value of
// sin(elevation) (NaN until evaluated, or when the lane falls outside the
// lane certificate), and its scalar elevation once a decision needed it.
struct SearchPoint {
  JulianDate jd = 0.0;
  double sin_el = std::numeric_limits<double>::quiet_NaN();
  double el_deg = 0.0;
  bool scalar = false;  ///< el_deg holds ElevationSampler::elevation_deg
};

// Evaluates search points four at a time in SIMD lanes and decides the
// searches' comparisons: from the lanes when they carry the lane
// certificate (orbit/sgp4_batch.h), otherwise from
// ElevationSampler::elevation_deg, computed at most once per point. A
// search calls the scalar sampler only at points the scalar search
// evaluates, in the same order, so it throws the same
// PropagationError at the same point: a lane the kernel did not flag
// certifies that the scalar call does not throw there.
class LaneSearch {
 public:
  explicit LaneSearch(const ElevationSampler& sampler)
      : sampler_(sampler), lanes_(sampler.propagator()) {}

  // Lane values for up to four points; spare lanes repeat the first.
  void evaluate(std::initializer_list<SearchPoint*> points) {
    constexpr std::size_t kLanes = Sgp4TimeBatch::kLaneWidth;
    JulianDate jd[kLanes];
    std::size_t n = 0;
    for (const SearchPoint* p : points) jd[n++] = p->jd;
    for (std::size_t l = n; l < kLanes; ++l) jd[l] = jd[0];
    double x[kLanes], y[kLanes], z[kLanes];
    LaneStatus status[kLanes];
    lanes_.propagate_ecef(jd, x, y, z, status);
    const JulianDate epoch = sampler_.propagator().epoch_jd();
    std::size_t l = 0;
    for (SearchPoint* p : points) {
      p->sin_el = certified_lane_sine(sampler_.frame(), epoch, p->jd,
                                      Vec3{x[l], y[l], z[l]}, status[l]);
      ++l;
    }
  }

  // elevation_deg(p.jd) >= mask_deg, where sin_mask = lane_sin_mask(mask).
  bool at_or_above(SearchPoint& p, double mask_deg, double sin_mask) {
    if (p.sin_el - sin_mask > kLaneMargin) return true;
    if (sin_mask - p.sin_el > kLaneMargin) return false;
    return scalar(p) >= mask_deg;
  }

  // elevation_deg(p1.jd) < elevation_deg(p2.jd).
  bool lower(SearchPoint& p1, SearchPoint& p2) {
    const double d = p2.sin_el - p1.sin_el;
    if (d > kLaneMargin) return true;
    if (d < -kLaneMargin) return false;
    const double f1 = scalar(p1);
    const double f2 = scalar(p2);
    return f1 < f2;
  }

  // A point the scalar search evaluates but never compares: it only has
  // to throw where the scalar call throws.
  void evaluated_unused(SearchPoint& p) {
    if (std::isnan(p.sin_el)) static_cast<void>(scalar(p));
  }

 private:
  double scalar(SearchPoint& p) {
    if (!p.scalar) {
      p.el_deg = sampler_.elevation_deg(p.jd);
      p.scalar = true;
    }
    return p.el_deg;
  }

  const ElevationSampler& sampler_;
  Sgp4TimeBatch lanes_;
};

}  // namespace

// Both searches below return the bits of the scalar loops they replay
// (tests/refine_oracle.h keeps those loops): every point is built with
// the scalar expression, the loop guards are checked between
// iterations, and each kernel call speculates the points of the next two
// iterations, so a call settles two of them.
JulianDate refine_mask_crossing(const ElevationSampler& sampler,
                                JulianDate jd_lo, JulianDate jd_hi,
                                double mask_deg, double tol_s) {
  const auto settled = [&](int i) {
    return i >= 64 || (jd_hi - jd_lo) * kSecondsPerDay <= tol_s;
  };
  if (settled(0)) {
    // No iteration: the scalar search evaluates only the low end.
    static_cast<void>(sampler.elevation_deg(jd_lo));
    return 0.5 * (jd_lo + jd_hi);
  }
  const double sin_mask = lane_sin_mask(mask_deg);
  LaneSearch search(sampler);
  SearchPoint lo{jd_lo};
  SearchPoint mid{0.5 * (jd_lo + jd_hi)};
  // The midpoints of the half each outcome keeps.
  SearchPoint left{0.5 * (jd_lo + mid.jd)};
  SearchPoint right{0.5 * (mid.jd + jd_hi)};
  search.evaluate({&lo, &mid, &left, &right});
  const bool lo_vis = search.at_or_above(lo, mask_deg, sin_mask);
  for (int i = 0;;) {
    SearchPoint* next = &left;
    if (search.at_or_above(mid, mask_deg, sin_mask) == lo_vis) {
      jd_lo = mid.jd;
      next = &right;
    } else {
      jd_hi = mid.jd;
    }
    if (settled(++i)) break;
    if (search.at_or_above(*next, mask_deg, sin_mask) == lo_vis)
      jd_lo = next->jd;
    else
      jd_hi = next->jd;
    if (settled(++i)) break;
    mid = SearchPoint{0.5 * (jd_lo + jd_hi)};
    left = SearchPoint{0.5 * (jd_lo + mid.jd)};
    right = SearchPoint{0.5 * (mid.jd + jd_hi)};
    search.evaluate({&mid, &left, &right});
  }
  return 0.5 * (jd_lo + jd_hi);
}

std::pair<JulianDate, double> refine_max_elevation(
    const ElevationSampler& sampler, JulianDate a, JulianDate b) {
  constexpr double kInvPhi = 0.6180339887498949;
  SearchPoint p1{b - kInvPhi * (b - a)};
  SearchPoint p2{a + kInvPhi * (b - a)};
  const auto settled = [&](int i) {
    return !(i < 48 && (b - a) * kSecondsPerDay > 0.5);
  };
  if (settled(0)) {
    // No iteration: the scalar search evaluates both probes, then peaks.
    static_cast<void>(sampler.elevation_deg(p1.jd));
    static_cast<void>(sampler.elevation_deg(p2.jd));
    const JulianDate peak = 0.5 * (a + b);
    return {peak, sampler.elevation_deg(peak)};
  }
  LaneSearch search(sampler);
  // The new point of the next iteration: `right` when it keeps the upper
  // part (a moves to p1), `left` when it keeps the lower (b moves to p2).
  SearchPoint right{p1.jd + kInvPhi * (b - p1.jd)};
  SearchPoint left{p2.jd - kInvPhi * (p2.jd - a)};
  search.evaluate({&p1, &p2, &right, &left});
  SearchPoint* newest = nullptr;
  for (int i = 0;;) {
    if (search.lower(p1, p2)) {
      a = p1.jd;
      p1 = p2;
      p2 = right;
      newest = &p2;
    } else {
      b = p2.jd;
      p2 = p1;
      p1 = left;
      newest = &p1;
    }
    if (settled(++i)) break;
    if (search.lower(p1, p2)) {
      a = p1.jd;
      p1 = p2;
      p2 = SearchPoint{a + kInvPhi * (b - a)};
      newest = &p2;
    } else {
      b = p2.jd;
      p2 = p1;
      p1 = SearchPoint{b - kInvPhi * (b - a)};
      newest = &p1;
    }
    if (settled(++i)) {
      search.evaluate({newest});
      break;
    }
    right = SearchPoint{p1.jd + kInvPhi * (b - p1.jd)};
    left = SearchPoint{p2.jd - kInvPhi * (p2.jd - a)};
    search.evaluate({newest, &right, &left});
  }
  search.evaluated_unused(*newest);
  const JulianDate peak = 0.5 * (a + b);
  return {peak, sampler.elevation_deg(peak)};
}

PassSample sample_geometry(const Sgp4& prop, const Geodetic& observer,
                           JulianDate jd) {
  return ElevationSampler(prop, observer).sample(jd);
}

namespace {

// A coarse step longer than a positive span would put the refinement
// bracket [t - step, t] of its first sample before the span's start, and
// the window refined there before its own AOS. A zero span has no such
// bracket.
void check_step_within_span(const char* caller, JulianDate jd_start,
                            JulianDate jd_end, double coarse_step_s) {
  if (jd_end > jd_start &&
      coarse_step_s / kSecondsPerDay > jd_end - jd_start)
    throw std::invalid_argument(std::string(caller) +
                                ": coarse step longer than the span");
}

}  // namespace

std::vector<std::vector<std::vector<ContactWindow>>> predict_passes_grid(
    const std::vector<const Sgp4*>& satellites,
    const std::vector<GridObserver>& observers, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts, unsigned threads,
    obs::MetricsRegistry* metrics) {
  check_step_within_span("predict_passes_grid", jd_start, jd_end,
                         opts.coarse_step_s);
  std::vector<PairTask> pairs;
  pairs.reserve(satellites.size() * observers.size());
  for (std::size_t s = 0; s < satellites.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o)
      pairs.push_back(PairTask{s, o});
  auto flat = scan_pass_pairs(satellites, observers, pairs, jd_start, jd_end,
                              opts, {}, threads, metrics);
  std::vector<std::vector<std::vector<ContactWindow>>> out(satellites.size());
  std::size_t next = 0;
  for (std::size_t s = 0; s < satellites.size(); ++s) {
    out[s].resize(observers.size());
    for (std::size_t o = 0; o < observers.size(); ++o)
      out[s][o] = std::move(flat[next++]);
  }
  return out;
}

ContactWindowCache::Key ContactWindowCache::make_key(
    const Tle& tle, const Geodetic& observer, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts) {
  return Key{tle.epoch_jd,
             tle.inclination_deg,
             tle.raan_deg,
             tle.eccentricity,
             tle.arg_perigee_deg,
             tle.mean_anomaly_deg,
             tle.mean_motion_rev_day,
             tle.bstar,
             observer.latitude_deg,
             observer.longitude_deg,
             observer.altitude_km,
             jd_start,
             jd_end,
             opts.min_elevation_deg,
             opts.coarse_step_s,
             opts.refine_tolerance_s};
}

std::vector<ContactWindow> ContactWindowCache::get_or_compute(
    const Tle& tle, const Geodetic& observer, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts,
    const std::function<std::vector<ContactWindow>()>& compute) {
  const Key key = make_key(tle, observer, jd_start, jd_end, opts);
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      touch(it);
      return it->second.windows;
    }
    const auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Another caller is already computing this key; wait for it
      // instead of duplicating the work. Counts as a hit: the windows
      // come from someone else's computation.
      ++hits_;
      flight = in->second;
    } else {
      ++misses_;
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
      owner = true;
    }
  }

  if (!owner) {
    std::unique_lock<std::mutex> lock(flight->m);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->windows;
  }

  std::vector<ContactWindow> windows;
  try {
    windows = compute();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(flight->m);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }
  insert(key, windows);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->windows = windows;
    flight->done = true;
  }
  flight->cv.notify_all();
  return windows;
}

void ContactWindowCache::touch(std::map<Key, Entry>::iterator it) {
  recency_.splice(recency_.end(), recency_, it->second.recency);
}

void ContactWindowCache::insert(const Key& key,
                                const std::vector<ContactWindow>& windows) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) return;  // already present
  it->second.windows = windows;
  recency_.push_back(key);
  it->second.recency = std::prev(recency_.end());
  it->second.bytes = kEntryOverheadBytes +
                     it->second.windows.capacity() * sizeof(ContactWindow);
  bytes_ += it->second.bytes;
  evict_over_budget();
}

void ContactWindowCache::evict_over_budget() {
  while (!recency_.empty() &&
         (entries_.size() > max_entries_ ||
          (max_bytes_ != 0 && bytes_ > max_bytes_ && entries_.size() > 1))) {
    const auto victim = entries_.find(recency_.front());
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    recency_.pop_front();
  }
}

ContactWindowCache::Stats ContactWindowCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {hits_, misses_, entries_.size(), bytes_};
}

void ContactWindowCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  recency_.clear();
  bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
}

ContactWindowCache& ContactWindowCache::global() {
  static ContactWindowCache cache;
  return cache;
}

std::vector<std::vector<std::vector<ContactWindow>>>
predict_passes_grid_cached(const std::vector<Tle>& tles,
                           const std::vector<GridObserver>& observers,
                           JulianDate jd_start, JulianDate jd_end,
                           const PassPredictionOptions& opts,
                           unsigned threads, ContactWindowCache* cache,
                           obs::MetricsRegistry* metrics) {
  // Before the probe: a NaN span would break the key map's ordering.
  check_scan_span("predict_passes_grid_cached", jd_start, jd_end,
                  opts.coarse_step_s);
  check_step_within_span("predict_passes_grid_cached", jd_start, jd_end,
                         opts.coarse_step_s);
  if (cache == nullptr)
    throw std::invalid_argument("predict_passes_grid_cached: null cache");
  std::vector<std::vector<std::vector<ContactWindow>>> out(tles.size());
  for (auto& per_sat : out) per_sat.resize(observers.size());

  // Cache keys carry the observer's *effective* mask, so an observer
  // whose mask is the options' fallback shares entries with one that
  // names the same mask.
  const auto effective_opts = [&](std::size_t o) {
    PassPredictionOptions eff = opts;
    if (!std::isnan(observers[o].min_elevation_deg))
      eff.min_elevation_deg = observers[o].min_elevation_deg;
    return eff;
  };

  // Probe the cache; remember which (satellite, observer) pairs still
  // need computing.
  std::vector<PairTask> miss_pairs;
  std::uint64_t probe_hits = 0;
  {
    std::lock_guard<std::mutex> lock(cache->mutex_);
    for (std::size_t s = 0; s < tles.size(); ++s) {
      for (std::size_t o = 0; o < observers.size(); ++o) {
        const auto key = ContactWindowCache::make_key(
            tles[s], observers[o].location, jd_start, jd_end,
            effective_opts(o));
        const auto it = cache->entries_.find(key);
        if (it != cache->entries_.end()) {
          ++cache->hits_;
          ++probe_hits;
          cache->touch(it);  // LRU: a hit refreshes recency
          out[s][o] = it->second.windows;
        } else {
          ++cache->misses_;
          miss_pairs.push_back(PairTask{s, o});
        }
      }
    }
  }
  if (metrics != nullptr) {
    // Per-call deltas, so concurrent callers sharing the global cache
    // each account only for their own probes.
    metrics->counter("orbit.pass_cache.hits").add(probe_hits);
    metrics->counter("orbit.pass_cache.misses").add(miss_pairs.size());
  }

  if (!miss_pairs.empty()) {
    // One engine scan for every miss: satellites propagate once per step
    // regardless of how many observers missed against them.
    std::vector<std::size_t> sat_row(tles.size(),
                                     std::numeric_limits<std::size_t>::max());
    std::vector<Sgp4> props;
    std::vector<const Sgp4*> satellites;
    for (const PairTask& p : miss_pairs)
      if (sat_row[p.satellite] == std::numeric_limits<std::size_t>::max()) {
        sat_row[p.satellite] = props.size();
        props.emplace_back(tles[p.satellite]);
      }
    satellites.reserve(props.size());
    for (const Sgp4& prop : props) satellites.push_back(&prop);
    std::vector<PairTask> scan_pairs;
    scan_pairs.reserve(miss_pairs.size());
    for (const PairTask& p : miss_pairs)
      scan_pairs.push_back(PairTask{sat_row[p.satellite], p.observer});

    auto computed = scan_pass_pairs(satellites, observers, scan_pairs,
                                    jd_start, jd_end, opts, {}, threads,
                                    metrics);
    for (std::size_t m = 0; m < miss_pairs.size(); ++m) {
      const PairTask& p = miss_pairs[m];
      cache->insert(ContactWindowCache::make_key(
                        tles[p.satellite], observers[p.observer].location,
                        jd_start, jd_end, effective_opts(p.observer)),
                    computed[m]);
      out[p.satellite][p.observer] = std::move(computed[m]);
    }
  }
  // Single entries/bytes-gauge refresh, after any insertions — the
  // pre-compute set this used to do was redundant on the miss path and
  // is folded into this one, which also covers the all-hits early path.
  if (metrics != nullptr) {
    const ContactWindowCache::Stats cs = cache->stats();
    metrics->gauge("orbit.pass_cache.entries")
        .set(static_cast<double>(cs.entries));
    metrics->gauge("orbit.pass_cache.bytes")
        .set(static_cast<double>(cs.bytes));
  }
  return out;
}

std::vector<PassSample> sample_pass(const Sgp4& prop, const Geodetic& observer,
                                    const ContactWindow& window,
                                    double step_s) {
  if (step_s <= 0.0) throw std::invalid_argument("sample_pass: step <= 0");
  const ElevationSampler sampler(prop, observer);
  std::vector<PassSample> out;
  const double step_days = step_s / kSecondsPerDay;
  for (JulianDate jd = window.aos_jd; jd < window.los_jd; jd += step_days)
    out.push_back(sampler.sample(jd));
  // The terminal sample is pinned to LOS exactly. When the window
  // duration is an exact multiple of step_s the loop's last grid point
  // already sits at LOS (modulo float accumulation) — drop it instead of
  // emitting a duplicate terminal sample microseconds apart.
  const double dup_tol_days = std::min(1e-6, 0.5 * step_days);
  if (!out.empty() && window.los_jd - out.back().jd < dup_tol_days)
    out.pop_back();
  out.push_back(sampler.sample(window.los_jd));
  return out;
}

std::vector<ContactWindow> merge_windows(std::vector<ContactWindow> windows) {
  if (windows.empty()) return windows;
  std::sort(windows.begin(), windows.end(),
            [](const ContactWindow& a, const ContactWindow& b) {
              return a.aos_jd < b.aos_jd;
            });
  std::vector<ContactWindow> merged;
  merged.push_back(windows.front());
  for (std::size_t i = 1; i < windows.size(); ++i) {
    ContactWindow& last = merged.back();
    const ContactWindow& w = windows[i];
    if (w.aos_jd <= last.los_jd) {
      if (w.los_jd > last.los_jd) last.los_jd = w.los_jd;
      if (w.max_elevation_deg > last.max_elevation_deg) {
        last.max_elevation_deg = w.max_elevation_deg;
        last.tca_jd = w.tca_jd;
      }
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

double daily_visible_seconds(const std::vector<ContactWindow>& windows,
                             JulianDate jd_start, JulianDate jd_end) {
  if (jd_end <= jd_start)
    throw std::invalid_argument("daily_visible_seconds: empty span");
  const std::vector<ContactWindow> merged = merge_windows(windows);
  double total_s = 0.0;
  for (const ContactWindow& w : merged) {
    const JulianDate a = std::max(w.aos_jd, jd_start);
    const JulianDate b = std::min(w.los_jd, jd_end);
    if (b > a) total_s += (b - a) * kSecondsPerDay;
  }
  return total_s / (jd_end - jd_start);
}

std::vector<double> contact_gaps_s(const std::vector<ContactWindow>& windows) {
  const std::vector<ContactWindow> merged = merge_windows(windows);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < merged.size(); ++i)
    gaps.push_back((merged[i].aos_jd - merged[i - 1].los_jd) *
                   kSecondsPerDay);
  return gaps;
}

}  // namespace sinet::orbit

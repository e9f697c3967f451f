#include "orbit/passes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/ephemeris.h"
#include "orbit/frames.h"
#include "sim/thread_pool.h"

namespace sinet::orbit {

double ElevationSampler::elevation_deg(JulianDate jd) const {
  const TemeState st = prop_->at_jd(jd);
  const EcefState ecef =
      teme_to_ecef_state(st.position_km, st.velocity_km_s, jd);
  // Shared definition with the ephemeris-table scan (see look_angles.h):
  // both paths agreeing bit-for-bit is what makes culled windows
  // bit-identical to the legacy scan.
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

JulianDate refine_mask_crossing(const ElevationSampler& sampler,
                                JulianDate jd_lo, JulianDate jd_hi,
                                double mask_deg, double tol_s) {
  const bool lo_vis = sampler.elevation_deg(jd_lo) >= mask_deg;
  for (int i = 0; i < 64; ++i) {
    if ((jd_hi - jd_lo) * kSecondsPerDay <= tol_s) break;
    const JulianDate mid = 0.5 * (jd_lo + jd_hi);
    const bool mid_vis = sampler.elevation_deg(mid) >= mask_deg;
    if (mid_vis == lo_vis)
      jd_lo = mid;
    else
      jd_hi = mid;
  }
  return 0.5 * (jd_lo + jd_hi);
}

std::pair<JulianDate, double> refine_max_elevation(
    const ElevationSampler& sampler, JulianDate a, JulianDate b) {
  constexpr double kInvPhi = 0.6180339887498949;
  JulianDate x1 = b - kInvPhi * (b - a);
  JulianDate x2 = a + kInvPhi * (b - a);
  double f1 = sampler.elevation_deg(x1);
  double f2 = sampler.elevation_deg(x2);
  for (int i = 0; i < 48 && (b - a) * kSecondsPerDay > 0.5; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = sampler.elevation_deg(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = sampler.elevation_deg(x1);
    }
  }
  const JulianDate peak = 0.5 * (a + b);
  return {peak, sampler.elevation_deg(peak)};
}

PassSample sample_geometry(const Sgp4& prop, const Geodetic& observer,
                           JulianDate jd) {
  return ElevationSampler(prop, observer).sample(jd);
}

std::vector<ContactWindow> predict_passes(const Sgp4& prop,
                                          const Geodetic& observer,
                                          JulianDate jd_start,
                                          JulianDate jd_end,
                                          const PassPredictionOptions& opts) {
  if (jd_end < jd_start)
    throw std::invalid_argument("predict_passes: jd_end < jd_start");
  if (opts.coarse_step_s <= 0.0)
    throw std::invalid_argument("predict_passes: nonpositive step");

  const ElevationSampler sampler(prop, observer);
  std::vector<ContactWindow> out;
  const double step_days = opts.coarse_step_s / kSecondsPerDay;

  bool prev_vis = sampler.elevation_deg(jd_start) >= opts.min_elevation_deg;
  JulianDate window_start = prev_vis ? jd_start : 0.0;

  for (JulianDate jd = jd_start + step_days;; jd += step_days) {
    const JulianDate t = std::min(jd, jd_end);
    const bool vis = sampler.elevation_deg(t) >= opts.min_elevation_deg;
    if (vis && !prev_vis) {
      window_start = refine_mask_crossing(sampler, t - step_days, t,
                                     opts.min_elevation_deg,
                                     opts.refine_tolerance_s);
    } else if (!vis && prev_vis) {
      const JulianDate window_end =
          refine_mask_crossing(sampler, t - step_days, t, opts.min_elevation_deg,
                          opts.refine_tolerance_s);
      ContactWindow w;
      w.aos_jd = window_start;
      w.los_jd = window_end;
      auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
      w.tca_jd = tca;
      w.max_elevation_deg = elev;
      out.push_back(w);
    }
    prev_vis = vis;
    if (t >= jd_end) break;
  }
  if (prev_vis) {  // window still open at jd_end: truncate
    ContactWindow w;
    w.aos_jd = window_start;
    w.los_jd = jd_end;
    auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
    w.tca_jd = tca;
    w.max_elevation_deg = elev;
    out.push_back(w);
  }
  return out;
}

std::vector<std::vector<ContactWindow>> predict_passes_batch(
    const std::vector<PassBatchRequest>& requests, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts, unsigned threads,
    obs::MetricsRegistry* metrics) {
  // Validate once up front so failures are thrown deterministically
  // before any task is spawned.
  if (jd_end < jd_start)
    throw std::invalid_argument("predict_passes_batch: jd_end < jd_start");
  if (opts.coarse_step_s <= 0.0)
    throw std::invalid_argument("predict_passes_batch: nonpositive step");
  for (const PassBatchRequest& req : requests)
    if (req.propagator == nullptr)
      throw std::invalid_argument("predict_passes_batch: null propagator");

  obs::ScopedTimer timer(
      metrics == nullptr
          ? nullptr
          : &metrics->histogram("orbit.pass_batch.latency_ms", 0.0, 10000.0,
                                50));
  if (metrics != nullptr) {
    metrics->counter("orbit.pass_batch.calls").add(1);
    metrics->counter("orbit.pass_batch.requests").add(requests.size());
  }

  // Deduplicate propagators and observers so the engine shares ephemeris
  // rows between requests naming the same satellite and topocentric
  // frames between requests naming the same site.
  std::vector<const Sgp4*> satellites;
  std::map<const Sgp4*, std::size_t> satellite_index;
  std::vector<GridObserver> observers;
  std::map<std::tuple<double, double, double>, std::size_t> observer_index;
  std::vector<PairTask> pairs;
  pairs.reserve(requests.size());
  for (const PassBatchRequest& req : requests) {
    const auto [sit, s_new] =
        satellite_index.try_emplace(req.propagator, satellites.size());
    if (s_new) satellites.push_back(req.propagator);
    const auto [oit, o_new] = observer_index.try_emplace(
        std::tuple{req.observer.latitude_deg, req.observer.longitude_deg,
                   req.observer.altitude_km},
        observers.size());
    if (o_new) observers.push_back(GridObserver{req.observer});
    pairs.push_back(PairTask{sit->second, oit->second});
  }
  return scan_pass_pairs(satellites, observers, pairs, jd_start, jd_end,
                         opts, {}, threads, metrics);
}

std::vector<std::vector<std::vector<ContactWindow>>> predict_passes_grid(
    const std::vector<const Sgp4*>& satellites,
    const std::vector<GridObserver>& observers, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts, unsigned threads,
    obs::MetricsRegistry* metrics) {
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
    JulianDate jd_end, const PassPredictionOptions& opts, double mode_slot) {
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
             opts.refine_tolerance_s,
             mode_slot};
}

std::vector<ContactWindow> ContactWindowCache::get_or_predict(
    const Tle& tle, const Geodetic& observer, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts) {
  // predict_passes() always runs the scalar reference propagator, so
  // this path keys (and stays mutually visible) with kReference.
  return get_or_compute(tle, observer, jd_start, jd_end, opts,
                        PropagationMode::kReference, [&] {
                          const Sgp4 prop(tle);
                          return predict_passes(prop, observer, jd_start,
                                                jd_end, opts);
                        });
}

std::vector<ContactWindow> ContactWindowCache::get_or_compute(
    const Tle& tle, const Geodetic& observer, JulianDate jd_start,
    JulianDate jd_end, const PassPredictionOptions& opts,
    PropagationMode mode_slot,
    const std::function<std::vector<ContactWindow>()>& compute) {
  const Key key =
      make_key(tle, observer, jd_start, jd_end, opts,
               static_cast<double>(static_cast<int>(mode_slot)));
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
  std::vector<std::vector<std::vector<ContactWindow>>> out(tles.size());
  for (auto& per_sat : out) per_sat.resize(observers.size());

  // Resolve the propagation mode once so the probe keys, the engine scan,
  // and the insert keys all agree even if another thread flips the global
  // mid-call. Fast-mode results never alias reference-mode entries.
  EphemerisScanOptions scan_opts;
  const double mode_slot =
      static_cast<double>(static_cast<int>(scan_opts.mode));

  // Cache keys carry the observer's *effective* mask so they are the
  // same keys get_or_predict / batch_cached would use for that pair.
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
  if (cache == nullptr) {
    for (std::size_t s = 0; s < tles.size(); ++s)
      for (std::size_t o = 0; o < observers.size(); ++o)
        miss_pairs.push_back(PairTask{s, o});
  } else {
    std::lock_guard<std::mutex> lock(cache->mutex_);
    for (std::size_t s = 0; s < tles.size(); ++s) {
      for (std::size_t o = 0; o < observers.size(); ++o) {
        const auto key = ContactWindowCache::make_key(
            tles[s], observers[o].location, jd_start, jd_end,
            effective_opts(o), mode_slot);
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
                                    jd_start, jd_end, opts, scan_opts,
                                    threads, metrics);
    for (std::size_t m = 0; m < miss_pairs.size(); ++m) {
      const PairTask& p = miss_pairs[m];
      if (cache != nullptr)
        cache->insert(ContactWindowCache::make_key(
                          tles[p.satellite], observers[p.observer].location,
                          jd_start, jd_end, effective_opts(p.observer),
                          mode_slot),
                      computed[m]);
      out[p.satellite][p.observer] = std::move(computed[m]);
    }
  }
  // Single entries/bytes-gauge refresh, after any insertions — the
  // pre-compute set this used to do was redundant on the miss path and
  // is folded into this one, which also covers the all-hits early path.
  if (metrics != nullptr && cache != nullptr) {
    const ContactWindowCache::Stats cs = cache->stats();
    metrics->gauge("orbit.pass_cache.entries")
        .set(static_cast<double>(cs.entries));
    metrics->gauge("orbit.pass_cache.bytes")
        .set(static_cast<double>(cs.bytes));
  }
  return out;
}

std::vector<std::vector<ContactWindow>> predict_passes_batch_cached(
    const std::vector<Tle>& tles, const Geodetic& observer,
    JulianDate jd_start, JulianDate jd_end, const PassPredictionOptions& opts,
    unsigned threads, ContactWindowCache* cache,
    obs::MetricsRegistry* metrics) {
  auto grid = predict_passes_grid_cached(tles, {GridObserver{observer}},
                                         jd_start, jd_end, opts, threads,
                                         cache, metrics);
  std::vector<std::vector<ContactWindow>> out(tles.size());
  for (std::size_t i = 0; i < tles.size(); ++i)
    out[i] = std::move(grid[i][0]);
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

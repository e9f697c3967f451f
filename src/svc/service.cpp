#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/look_angles.h"
#include "orbit/frames.h"
#include "orbit/time.h"

namespace sinet::svc {

namespace {

const char* request_type_name(RequestType type) noexcept {
  switch (type) {
    case RequestType::kNextPass: return "next_pass";
    case RequestType::kPassesInRange: return "passes_in_range";
    case RequestType::kVisibilityNow: return "visibility_now";
    case RequestType::kStats: return "stats";
  }
  return "stats";
}

double wall_clock_unix_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PassService::PassService(const ServiceOptions& opts,
                         obs::MetricsRegistry* metrics)
    : opts_(opts), metrics_(metrics),
      cache_(opts.cache_entries, opts.cache_bytes),
      t0_(std::chrono::steady_clock::now()) {
  if (!(opts_.horizon_hours > 0.0))
    throw std::invalid_argument("PassService: nonpositive horizon_hours");
  if (!(opts_.retention_hours >= 0.0))
    throw std::invalid_argument("PassService: negative retention_hours");
  if (!(opts_.step_s > 0.0))
    throw std::invalid_argument("PassService: nonpositive step_s");
  if (!(opts_.time_scale > 0.0))
    throw std::invalid_argument("PassService: nonpositive time_scale");
  epoch_unix_s_ = std::isnan(opts_.epoch_unix_s) ? wall_clock_unix_s()
                                                 : opts_.epoch_unix_s;

  // The paper's Table 3 fleets, TLEs generated at the service epoch so
  // the horizon is busy from the first query.
  const orbit::JulianDate epoch_jd = orbit::unix_to_julian(epoch_unix_s_);
  std::vector<orbit::ConstellationSpec> specs;
  if (opts_.constellation == "all") {
    specs = orbit::paper_constellations();
  } else {
    specs.push_back(orbit::paper_constellation(opts_.constellation));
  }
  int catalog = 51000;
  for (const orbit::ConstellationSpec& spec : specs) {
    std::vector<orbit::Tle> tles =
        orbit::generate_tles(spec, epoch_jd, catalog);
    catalog += static_cast<int>(tles.size());
    for (orbit::Tle& tle : tles) tles_.push_back(std::move(tle));
  }
  propagators_.reserve(tles_.size());
  for (const orbit::Tle& tle : tles_) propagators_.emplace_back(tle);

  std::vector<const orbit::Sgp4*> sats;
  sats.reserve(propagators_.size());
  for (const orbit::Sgp4& p : propagators_) sats.push_back(&p);
  orbit::RollingEphemeris::Options ropts;
  ropts.coarse_step_s = opts_.step_s;
  ropts.chunk_samples = opts_.chunk_samples;
  ropts.mode = opts_.mode;
  rolling_ = std::make_unique<orbit::RollingEphemeris>(std::move(sats),
                                                       epoch_jd, ropts);
  // After the rolling grid's own step check, before its first sample.
  const double samples =
      (opts_.horizon_hours + opts_.retention_hours) * 3600.0 / opts_.step_s;
  if (!(samples <= kMaxHorizonSamples)) {
    char msg[200];
    std::snprintf(msg, sizeof msg,
                  "PassService: step_s %g s gives %.3g samples per satellite "
                  "over the %g h horizon, above the bound of %.0f",
                  opts_.step_s, samples,
                  opts_.horizon_hours + opts_.retention_hours,
                  kMaxHorizonSamples);
    throw std::invalid_argument(msg);
  }
  advance_horizon();
}

orbit::JulianDate PassService::now_jd() const {
  return orbit::unix_to_julian(now_unix_s());
}

double PassService::now_unix_s() const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  return epoch_unix_s_ + elapsed * opts_.time_scale;
}

orbit::RollingEphemeris::AdvanceStats PassService::advance_horizon() {
  std::unique_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate now = now_jd();
  const orbit::JulianDate cover = now + opts_.horizon_hours / 24.0;
  const orbit::JulianDate retire = now - opts_.retention_hours / 24.0;
  const auto stats = rolling_->advance(retire, cover, nullptr);
  advances_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->counter("svc.horizon.advances").add(1);
    metrics_->counter("svc.horizon.chunks_appended").add(stats.chunks_appended);
    metrics_->counter("svc.horizon.chunks_retired").add(stats.chunks_retired);
    metrics_->counter("svc.horizon.propagations").add(stats.propagations);
    metrics_->gauge("svc.horizon.resident_bytes")
        .set(static_cast<double>(rolling_->resident_bytes()));
    metrics_->gauge("svc.horizon.samples")
        .set(static_cast<double>(rolling_->sample_count()));
  }
  refresh_gauges();
  return stats;
}

void PassService::refresh_gauges() {
  if (metrics_ == nullptr) return;
  const auto cs = cache_.stats();
  metrics_->gauge("orbit.pass_cache.entries")
      .set(static_cast<double>(cs.entries));
  metrics_->gauge("orbit.pass_cache.bytes").set(static_cast<double>(cs.bytes));
  metrics_->gauge("svc.cache.hit_rate")
      .set(cs.hits + cs.misses == 0
               ? 0.0
               : static_cast<double>(cs.hits) /
                     static_cast<double>(cs.hits + cs.misses));
}

std::string PassService::handle_line(const std::string& line) {
  // No clock is read without a registry to record into.
  std::chrono::steady_clock::time_point t0;
  if (metrics_ != nullptr) t0 = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->counter("svc.requests").add(1);

  std::string response;
  const char* type = nullptr;  // known once the request parsed
  try {
    const Request req = parse_request(line);
    type = request_type_name(req.type);
    if (metrics_ != nullptr)
      metrics_->counter(std::string("svc.requests.") + type).add(1);
    response = handle(req);
  } catch (const ProtocolError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->counter("svc.errors").add(1);
      metrics_
          ->counter(std::string("svc.errors.") + error_code_name(e.code()))
          .add(1);
    }
    Request echo;  // carry the parsed id (if any) into the error
    echo.has_id = e.has_id();
    echo.id = e.id();
    response = error_response(e.code(), e.what(), &echo);
  } catch (const std::exception& e) {
    // Bug shield: a handler exception is still a typed response, never a
    // dropped connection or a crash.
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->counter("svc.errors").add(1);
      metrics_->counter("svc.errors.internal").add(1);
    }
    response = error_response(ErrorCode::kInternal, e.what());
  }

  if (metrics_ != nullptr) {
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // hi = 250 ms keeps every sane SLO threshold below the overflow
    // bucket (see obs::snapshot_quantile's gate contract).
    metrics_->histogram("svc.request_latency_ms", 0.0, 250.0, 500).record(ms);
    // Per type: one sample per svc.requests.<type> count, failures too.
    if (type != nullptr)
      metrics_
          ->histogram(std::string("svc.request_latency_ms.") + type, 0.0,
                      250.0, 500)
          .record(ms);
  }
  return response;
}

std::string PassService::handle(const Request& req) {
  switch (req.type) {
    case RequestType::kNextPass: return handle_next_pass(req);
    case RequestType::kPassesInRange: return handle_passes_in_range(req);
    case RequestType::kVisibilityNow: return handle_visibility_now(req);
    case RequestType::kStats: return stats_response(req, stats_payload());
  }
  throw ProtocolError(ErrorCode::kInternal, "unhandled request type");
}

std::vector<orbit::ContactWindow> PassService::windows_for(
    std::size_t sat, const orbit::Geodetic& observer, double mask_deg,
    orbit::JulianDate h_start, orbit::JulianDate h_end) {
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = mask_deg;
  popts.coarse_step_s = opts_.step_s;
  return cache_.get_or_compute(
      tles_[sat], observer, h_start, h_end, popts, [&] {
        orbit::GridObserver grid_observer;
        grid_observer.location = observer;
        return rolling_->scan_satellite(sat, grid_observer, popts);
      });
}

std::string PassService::handle_next_pass(const Request& req) {
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = std::isnan(req.min_elevation_deg)
                                ? opts_.min_elevation_deg
                                : req.min_elevation_deg;
  popts.coarse_step_s = opts_.step_s;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate h_start = rolling_->start_time();
  const orbit::JulianDate h_end = rolling_->end_time();
  const orbit::JulianDate after_jd = std::clamp(
      std::isnan(req.after_unix_s) ? now_jd()
                                   : orbit::unix_to_julian(req.after_unix_s),
      h_start, h_end);
  orbit::GridObserver observer;
  observer.location = req.observer;
  const orbit::RollingEphemeris::NextPass next =
      rolling_->next_pass(observer, popts, after_jd);

  if (!next.found)
    return next_pass_response(req, nullptr, orbit::julian_to_unix(h_end));
  const orbit::ContactWindow& best = next.window;
  PassEntry entry;
  entry.satellite = tles_[next.satellite].name;
  entry.catalog_number = tles_[next.satellite].catalog_number;
  entry.aos_unix_s = orbit::julian_to_unix(best.aos_jd);
  entry.los_unix_s = orbit::julian_to_unix(best.los_jd);
  entry.tca_unix_s = orbit::julian_to_unix(best.tca_jd);
  entry.max_elevation_deg = best.max_elevation_deg;
  return next_pass_response(req, &entry, orbit::julian_to_unix(h_end));
}

std::string PassService::handle_passes_in_range(const Request& req) {
  const double mask = std::isnan(req.min_elevation_deg)
                          ? opts_.min_elevation_deg
                          : req.min_elevation_deg;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate h_start = rolling_->start_time();
  const orbit::JulianDate h_end = rolling_->end_time();
  const orbit::JulianDate q_start =
      std::clamp(orbit::unix_to_julian(req.start_unix_s), h_start, h_end);
  const orbit::JulianDate q_end =
      std::clamp(orbit::unix_to_julian(req.end_unix_s), h_start, h_end);

  std::vector<PassEntry> entries;
  for (std::size_t s = 0; s < propagators_.size(); ++s) {
    const std::vector<orbit::ContactWindow> windows =
        windows_for(s, req.observer, mask, h_start, h_end);
    for (const orbit::ContactWindow& w : windows) {
      if (w.los_jd < q_start || w.aos_jd > q_end) continue;
      PassEntry entry;
      entry.satellite = tles_[s].name;
      entry.catalog_number = tles_[s].catalog_number;
      entry.aos_unix_s = orbit::julian_to_unix(w.aos_jd);
      entry.los_unix_s = orbit::julian_to_unix(w.los_jd);
      entry.tca_unix_s = orbit::julian_to_unix(w.tca_jd);
      entry.max_elevation_deg = w.max_elevation_deg;
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const PassEntry& a, const PassEntry& b) {
              return a.aos_unix_s != b.aos_unix_s
                         ? a.aos_unix_s < b.aos_unix_s
                         : a.catalog_number < b.catalog_number;
            });
  return passes_in_range_response(req, entries);
}

std::string PassService::handle_visibility_now(const Request& req) {
  const double mask = std::isnan(req.min_elevation_deg)
                          ? opts_.min_elevation_deg
                          : req.min_elevation_deg;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const std::size_t k = rolling_->nearest_index(now_jd());
  const orbit::TopocentricFrame frame(req.observer);
  std::vector<VisibleEntry> visible;
  for (std::size_t s = 0; s < propagators_.size(); ++s) {
    const double elevation = orbit::elevation_from_ecef(
        frame, rolling_->sample_position_ecef_km(s, k));
    if (elevation < mask) continue;
    VisibleEntry entry;
    entry.satellite = tles_[s].name;
    entry.catalog_number = tles_[s].catalog_number;
    entry.elevation_deg = elevation;
    visible.push_back(std::move(entry));
  }
  return visibility_now_response(
      req, orbit::julian_to_unix(rolling_->sample_time(k)), visible);
}

StatsPayload PassService::stats_payload() {
  StatsPayload payload;
  {
    std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
    payload.horizon_start_unix_s =
        orbit::julian_to_unix(rolling_->start_time());
    payload.horizon_end_unix_s = orbit::julian_to_unix(rolling_->end_time());
    payload.horizon_resident_bytes = rolling_->resident_bytes();
  }
  payload.now_unix_s = now_unix_s();
  payload.satellites = propagators_.size();
  payload.requests = requests_.load(std::memory_order_relaxed);
  payload.errors = errors_.load(std::memory_order_relaxed);
  payload.shed = shed_.load(std::memory_order_relaxed);
  payload.horizon_advances = advances_.load(std::memory_order_relaxed);
  const auto cs = cache_.stats();
  payload.cache_hits = cs.hits;
  payload.cache_misses = cs.misses;
  payload.cache_entries = cs.entries;
  payload.cache_bytes = cs.bytes;
  refresh_gauges();
  return payload;
}

}  // namespace sinet::svc

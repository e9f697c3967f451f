#include "net/dts_batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/frames.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/thread_pool.h"

namespace sinet::net {

namespace detail {

std::size_t dts_node_count(const DtsNetworkConfig& cfg) {
  return cfg.fleet.count > 0 ? cfg.fleet.count : cfg.nodes.size();
}

IotNodeConfig dts_node_config(const DtsNetworkConfig& cfg, std::size_t i) {
  if (cfg.fleet.count == 0) return cfg.nodes.at(i);
  IotNodeConfig nc = cfg.fleet.prototype;
  nc.name = cfg.fleet.prototype.name + "-" + std::to_string(i);
  nc.location = cfg.fleet.sites[i % cfg.fleet.sites.size()];
  return nc;
}

void validate_dts_config(const DtsNetworkConfig& cfg) {
  const bool fleet = cfg.fleet.count > 0;
  if (fleet && !cfg.nodes.empty())
    throw std::invalid_argument(
        "DtsNetwork: both nodes and fleet configured; pick one");
  if (fleet && cfg.fleet.sites.empty())
    throw std::invalid_argument("DtsNetwork: fleet without sites");
  if (!fleet && cfg.nodes.empty())
    throw std::invalid_argument("DtsNetwork: no IoT nodes configured");
  if (cfg.duration_days <= 0.0)
    throw std::invalid_argument("DtsNetwork: nonpositive duration");
  if (cfg.beacon.period_s <= 0.5)
    throw std::invalid_argument("DtsNetwork: beacon period too small");
  if (cfg.constellation.total_satellites() <= 0)
    throw std::invalid_argument("DtsNetwork: empty constellation");
  if (cfg.ground_stations.empty())
    throw std::invalid_argument("DtsNetwork: no ground stations");
  if (fleet) {
    if (cfg.fleet.prototype.report_interval_s <= 0.0)
      throw std::invalid_argument("DtsNetwork: bad report interval");
  } else {
    for (const IotNodeConfig& nc : cfg.nodes)
      if (nc.report_interval_s <= 0.0)
        throw std::invalid_argument("DtsNetwork: bad report interval");
  }
}

double effective_tail_exclusion_s(const DtsNetworkConfig& cfg) {
  // A probe run shorter than twice the configured exclusion would
  // otherwise classify every report as ineligible (eligible_generated
  // stuck at 0 — the scale_ablation 100k bug): cap the exclusion at half
  // the run so short runs keep a nonzero eligible population. Every
  // engine (legacy, exact batched, sharded) applies this same helper, so
  // cross-engine parity is preserved.
  return std::min(cfg.aggregate_tail_exclusion_s,
                  0.5 * cfg.duration_days * 86400.0);
}

void aggregate_from_uplinks(const std::vector<trace::UplinkRecord>& uplinks,
                            double run_end_unix_s, double tail_exclusion_s,
                            DtsAggregates& agg) {
  const double eligible_before = run_end_unix_s - tail_exclusion_s;
  for (const trace::UplinkRecord& u : uplinks) {
    ++agg.reports_generated;
    const bool eligible = u.generated_unix_s <= eligible_before;
    if (eligible) ++agg.eligible_generated;
    if (u.first_tx_unix_s >= 0.0) {
      const double w = u.first_tx_unix_s - u.generated_unix_s;
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
    }
    if (u.dts_attempts > 0)
      agg.attempts.add(static_cast<double>(u.dts_attempts));
    if (!u.delivered) continue;
    ++agg.reports_delivered;
    if (eligible) ++agg.eligible_delivered;
    const double e2e = u.end_to_end_s();
    agg.sum_end_to_end_s += e2e;
    agg.latency_s.add(e2e);
    if (u.first_tx_unix_s >= 0.0 && u.satellite_rx_unix_s >= 0.0) {
      agg.sum_dts_transfer_s += u.dts_transfer_s();
      agg.sum_delivery_s += u.delivery_s();
      ++agg.breakdown_samples;
    }
  }
}

}  // namespace detail

namespace {

using orbit::ContactWindow;
using orbit::JulianDate;

/// Key for grouping nodes that share a deployment location (identical to
/// the legacy engine's, so both engines produce the same location set in
/// the same order).
struct LocationKey {
  double lat, lon, alt;
  bool operator<(const LocationKey& o) const {
    return std::tie(lat, lon, alt) < std::tie(o.lat, o.lon, o.alt);
  }
};

LocationKey key_of(const orbit::Geodetic& g) {
  return {g.latitude_deg, g.longitude_deg, g.altitude_km};
}

constexpr std::uint32_t kNoActive = std::numeric_limits<std::uint32_t>::max();

/// Compact per-node report buffer. Sequences are admitted in strictly
/// increasing order and drained FIFO, so occupancy is almost always one
/// contiguous run [b0, e0); local drops open gaps, for which a second
/// inline run and a rare per-node overflow list (in NodeStore) cover the
/// general case. 32 bytes per node instead of a std::deque<AppPacket>.
struct BufferRuns {
  std::uint64_t b0 = 0, e0 = 0;  ///< oldest run, [b0, e0)
  std::uint64_t b1 = 0, e1 = 0;  ///< next run, valid when e1 > b1
};

/// Struct-of-arrays node state: parallel plain vectors indexed by node.
/// No per-node strings, deques or trackers — the only per-node heap
/// allocation at scale is the shared vectors themselves.
struct NodeStore {
  std::size_t count = 0;

  // Static per-node configuration.
  std::vector<std::uint32_t> loc;  ///< index into locations_
  std::vector<double> interval_s;
  std::vector<double> phase_s;
  std::vector<int> payload_bytes;
  std::vector<int> max_retx;
  std::vector<std::uint32_t> capacity;
  std::vector<channel::AntennaType> antenna;

  // Dynamic state.
  std::vector<double> next_report_s;  ///< accumulated, mirrors legacy loop
  std::vector<std::uint64_t> next_seq;
  std::vector<std::uint32_t> buf_size;
  std::vector<BufferRuns> runs;
  /// Extra (newer) runs for the rare node holding >2 disjoint runs.
  /// Shared across nodes, so the sharded engine guards it with
  /// overflow_mutex (see push_seq); single-threaded exact mode takes the
  /// same (uncontended) lock on the same rare path.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      overflow;
  std::mutex overflow_mutex;
  std::vector<int> head_attempts;
  std::vector<std::uint8_t> head_stored;
  std::vector<double> head_first_tx_s;  ///< sim time; < 0 before any attempt
  std::vector<double> busy_until;
  std::vector<double> tx_seconds;

  void init(const DtsNetworkConfig& cfg,
            const std::vector<std::uint32_t>& node_loc) {
    count = detail::dts_node_count(cfg);
    loc = node_loc;
    interval_s.resize(count);
    phase_s.resize(count);
    payload_bytes.resize(count);
    max_retx.resize(count);
    capacity.resize(count);
    antenna.resize(count);
    const bool fleet = cfg.fleet.count > 0;
    const IotNodeConfig& proto = cfg.fleet.prototype;
    for (std::size_t n = 0; n < count; ++n) {
      const IotNodeConfig& nc = fleet ? proto : cfg.nodes[n];
      interval_s[n] = nc.report_interval_s;
      // Same de-synchronization phase as the legacy scheduler.
      phase_s[n] = std::fmod(60.0 * static_cast<double>(n),
                             nc.report_interval_s);
      payload_bytes[n] = nc.report_payload_bytes;
      max_retx[n] = nc.max_retransmissions;
      capacity[n] = static_cast<std::uint32_t>(std::min<std::size_t>(
          nc.buffer_capacity, std::numeric_limits<std::uint32_t>::max()));
      antenna[n] = nc.antenna;
    }
    next_report_s = phase_s;
    next_seq.assign(count, 0);
    buf_size.assign(count, 0);
    runs.assign(count, BufferRuns{});
    head_attempts.assign(count, 0);
    head_stored.assign(count, 0);
    head_first_tx_s.assign(count, -1.0);
    busy_until.assign(count, 0.0);
    tx_seconds.assign(count, 0.0);
  }

  [[nodiscard]] bool empty(std::size_t n) const { return buf_size[n] == 0; }
  [[nodiscard]] std::uint64_t front(std::size_t n) const {
    return runs[n].b0;
  }

  /// Admit `seq` (== next_seq[n] - 1) at the newest end. Returns false —
  /// a local drop — when the buffer is full.
  ///
  /// Concurrency: the sharded engine calls this from pool workers for
  /// DISJOINT node sets, so every per-node vector write is race-free.
  /// The one shared structure is the overflow map; by the run-ordering
  /// invariant (overflow[n] nonempty implies run1 is valid) it is only
  /// ever reachable behind the `r.e1 > r.b1` branch, so the map mutex is
  /// taken only on the rare >2-disjoint-runs path, never per push.
  bool push_seq(std::size_t n, std::uint64_t seq) {
    if (buf_size[n] >= capacity[n]) return false;
    BufferRuns& r = runs[n];
    if (r.e1 > r.b1) {
      std::lock_guard<std::mutex> lock(overflow_mutex);
      auto it = overflow.find(n);
      if (it != overflow.end() && !it->second.empty()) {
        auto& last = it->second.back();
        if (seq == last.second)
          ++last.second;
        else
          it->second.emplace_back(seq, seq + 1);
      } else if (seq == r.e1) {
        ++r.e1;
      } else {
        overflow[n].emplace_back(seq, seq + 1);
      }
    } else if (r.e0 > r.b0) {
      if (seq == r.e0) {
        ++r.e0;
      } else {
        r.b1 = seq;
        r.e1 = seq + 1;
      }
    } else {
      r.b0 = seq;
      r.e0 = seq + 1;
    }
    ++buf_size[n];
    return true;
  }

  void pop_front(std::size_t n) {
    BufferRuns& r = runs[n];
    ++r.b0;
    --buf_size[n];
    if (r.b0 < r.e0) return;
    // Oldest run drained: shift run1 down, pull from overflow if present.
    r.b0 = r.b1;
    r.e0 = r.e1;
    r.b1 = r.e1 = 0;
    if (r.e0 == r.b0) return;  // no run1 existed -> overflow empty
    std::lock_guard<std::mutex> lock(overflow_mutex);
    auto it = overflow.find(n);
    if (it != overflow.end() && !it->second.empty()) {
      r.b1 = it->second.front().first;
      r.e1 = it->second.front().second;
      it->second.erase(it->second.begin());
      if (it->second.empty()) overflow.erase(it);
    }
  }

  [[nodiscard]] std::size_t approx_bytes() const {
    std::size_t b = 0;
    b += loc.capacity() * sizeof(std::uint32_t);
    b += interval_s.capacity() * sizeof(double);
    b += phase_s.capacity() * sizeof(double);
    b += payload_bytes.capacity() * sizeof(int);
    b += max_retx.capacity() * sizeof(int);
    b += capacity.capacity() * sizeof(std::uint32_t);
    b += antenna.capacity() * sizeof(channel::AntennaType);
    b += next_report_s.capacity() * sizeof(double);
    b += next_seq.capacity() * sizeof(std::uint64_t);
    b += buf_size.capacity() * sizeof(std::uint32_t);
    b += runs.capacity() * sizeof(BufferRuns);
    b += head_attempts.capacity() * sizeof(int);
    b += head_stored.capacity() * sizeof(std::uint8_t);
    b += head_first_tx_s.capacity() * sizeof(double);
    b += busy_until.capacity() * sizeof(double);
    b += tx_seconds.capacity() * sizeof(double);
    return b;
  }
};

/// Exact-mode (trace) engine: at or below cfg.trace_node_threshold nodes
/// it replays the legacy RNG draw order bit-for-bit and emits a full
/// per-packet DtsNetworkResult. Population runs above the threshold go
/// to ShardSimulator below instead.
class BatchSimulator {
 public:
  explicit BatchSimulator(const DtsNetworkConfig& cfg)
      : cfg_(cfg),
        sim_(cfg.seed, orbit::julian_to_unix(cfg.start_jd)),
        error_model_(cfg.error_model),
        backhaul_(cfg.delivery_backhaul) {
    detail::validate_dts_config(cfg);
    sim_.attach_metrics(cfg_.metrics);
    build_satellites();
    build_nodes();
    predict_windows();
  }

  DtsNetworkResult run() {
    build_timelines();
    sim_.run_until(duration_s());
    materialize_reports(duration_s(), /*inclusive=*/false);
    return assemble_result();
  }

 private:
  [[nodiscard]] double duration_s() const {
    return cfg_.duration_days * 86400.0;
  }
  [[nodiscard]] JulianDate jd_at(sim::SimTime t) const {
    return cfg_.start_jd + t / orbit::kSecondsPerDay;
  }
  [[nodiscard]] channel::Weather weather_at(sim::SimTime t) const {
    if (cfg_.daily_weather.empty()) return channel::Weather::kSunny;
    const auto day = static_cast<std::size_t>(t / 86400.0);
    return cfg_.daily_weather[day % cfg_.daily_weather.size()];
  }
  /// Closed-form generation time of (node, seq). Only used where bit
  /// parity with the legacy engine is not observable (StoredPacket
  /// payloads and aggregate-mode eligibility/latency); trace records use
  /// the accumulated next_report_s, which matches the legacy scheduler's
  /// repeated-addition loop bit for bit.
  [[nodiscard]] double gen_time_s(std::size_t n, std::uint64_t seq) const {
    return nodes_.phase_s[n] +
           static_cast<double>(seq) * nodes_.interval_s[n];
  }

  void build_satellites() {
    tles_ = orbit::generate_tles(cfg_.constellation, cfg_.start_jd);
    satellites_.reserve(tles_.size());
    for (const orbit::Tle& tle : tles_) {
      satellites_.emplace_back(tle.name, cfg_.constellation.name, tle,
                               cfg_.satellite_buffer_capacity);
      satellites_.back().buffer = StoreAndForwardBuffer(
          cfg_.satellite_buffer_capacity, cfg_.satellite_drop_policy);
    }
  }

  void build_nodes() {
    const std::size_t count = detail::dts_node_count(cfg_);
    // Unique node locations, in first-appearance order (legacy order).
    std::map<LocationKey, std::size_t> loc_index;
    std::vector<std::uint32_t> node_loc;
    node_loc.reserve(count);
    if (cfg_.fleet.count > 0) {
      for (const orbit::Geodetic& site : cfg_.fleet.sites) {
        const LocationKey k = key_of(site);
        if (loc_index.emplace(k, locations_.size()).second)
          locations_.push_back(site);
      }
      const std::size_t sites = cfg_.fleet.sites.size();
      for (std::size_t n = 0; n < count; ++n)
        node_loc.push_back(static_cast<std::uint32_t>(
            loc_index.at(key_of(cfg_.fleet.sites[n % sites]))));
    } else {
      for (const IotNodeConfig& nc : cfg_.nodes) {
        const LocationKey k = key_of(nc.location);
        if (loc_index.emplace(k, locations_.size()).second)
          locations_.push_back(nc.location);
      }
      for (const IotNodeConfig& nc : cfg_.nodes)
        node_loc.push_back(static_cast<std::uint32_t>(
            loc_index.at(key_of(nc.location))));
    }
    nodes_.init(cfg_, node_loc);

    // Seed the activation heap with every node's first report time.
    for (std::size_t n = 0; n < count; ++n)
      if (nodes_.next_report_s[n] < duration_s())
        report_heap_.emplace(nodes_.next_report_s[n], n);

    records_.resize(count);
    node_names_.reserve(count);
    for (std::size_t n = 0; n < count; ++n)
      node_names_.push_back(detail::dts_node_config(cfg_, n).name);
  }

  void predict_windows() {
    orbit::PassPredictionOptions opts;
    opts.min_elevation_deg = cfg_.visibility_mask_deg;
    opts.coarse_step_s = cfg_.pass_scan_step_s;
    const JulianDate end_jd = cfg_.start_jd + cfg_.duration_days;

    node_windows_.assign(
        satellites_.size(),
        std::vector<std::vector<ContactWindow>>(locations_.size()));
    gs_windows_.assign(
        satellites_.size(),
        std::vector<std::vector<ContactWindow>>(cfg_.ground_stations.size()));

    std::vector<orbit::GridObserver> observers;
    observers.reserve(locations_.size() + cfg_.ground_stations.size());
    for (const orbit::Geodetic& loc : locations_)
      observers.push_back(orbit::GridObserver{loc});
    for (const GroundStationSite& gs : cfg_.ground_stations)
      observers.push_back(
          orbit::GridObserver{gs.location, gs.min_elevation_deg});

    auto windows = orbit::predict_passes_grid_cached(
        tles_, observers, cfg_.start_jd, end_jd, opts, cfg_.pass_threads,
        &orbit::ContactWindowCache::global(), cfg_.metrics);
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      for (std::size_t l = 0; l < locations_.size(); ++l)
        node_windows_[s][l] = std::move(windows[s][l]);
      for (std::size_t g = 0; g < cfg_.ground_stations.size(); ++g)
        gs_windows_[s][g] = std::move(windows[s][locations_.size() + g]);
    }

    window_cursor_.assign(satellites_.size(),
                          std::vector<std::uint32_t>(locations_.size(), 0));
    loc_geo_.assign(locations_.size(), LocGeo{});
    background_cache_.assign(
        satellites_.size(),
        {std::numeric_limits<std::uint64_t>::max(), 0.0});
  }

  /// One merged, time-sorted timeline per satellite: beacon ticks (built
  /// exactly like the legacy scheduler, deduped) and ground-station
  /// flush opportunities (kept in legacy insertion order at ties via
  /// stable_sort). The whole timeline is ONE chained queue event, so the
  /// pending set stays O(satellites) for the entire run.
  void build_timelines() {
    timeline_time_.resize(satellites_.size());
    timeline_is_flush_.resize(satellites_.size());
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      const double phase =
          cfg_.beacon.period_s * static_cast<double>(s * 29 % 97) / 97.0;
      std::vector<double> ticks;
      for (const auto& windows : node_windows_[s]) {
        for (const ContactWindow& w : windows) {
          const double a =
              (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double b =
              (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double first =
              phase +
              std::ceil((a - phase) / cfg_.beacon.period_s) *
                  cfg_.beacon.period_s;
          for (double t = first; t <= b; t += cfg_.beacon.period_s)
            if (t >= 0.0 && t < duration_s()) ticks.push_back(t);
        }
      }
      std::sort(ticks.begin(), ticks.end());
      ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());

      std::vector<double> flushes;
      for (std::size_t g = 0; g < gs_windows_[s].size(); ++g) {
        for (const ContactWindow& w : gs_windows_[s][g]) {
          const double aos =
              (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double los =
              (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          for (const double t : gs_flush_times(aos, los))
            if (t >= 0.0 && t < duration_s()) flushes.push_back(t);
        }
      }

      std::vector<double>& times = timeline_time_[s];
      std::vector<std::uint8_t>& kinds = timeline_is_flush_[s];
      times.reserve(ticks.size() + flushes.size());
      kinds.reserve(ticks.size() + flushes.size());
      for (const double t : ticks) {
        times.push_back(t);
        kinds.push_back(0);
      }
      for (const double t : flushes) {
        times.push_back(t);
        kinds.push_back(1);
      }
      // Beacon-before-flush at equal times, flushes keeping their
      // (gs, window) insertion order — both legacy-tie behaviors.
      std::vector<std::size_t> order(times.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (times[a] != times[b]) return times[a] < times[b];
                         return kinds[a] < kinds[b];
                       });
      std::vector<double> st(times.size());
      std::vector<std::uint8_t> sk(times.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        st[i] = times[order[i]];
        sk[i] = kinds[order[i]];
      }
      times = std::move(st);
      kinds = std::move(sk);

      if (!times.empty())
        sim_.events().schedule_chain(
            times, [this, s](std::size_t i) { on_timeline_entry(s, i); });
    }
  }

  void on_timeline_entry(std::size_t s, std::size_t i) {
    // Reports scheduled before beacons/flushes fire first at equal times
    // in the legacy engine; materializing due reports (inclusive) at
    // handler entry reproduces that phase order.
    materialize_reports(sim_.now(), /*inclusive=*/true);
    if (timeline_is_flush_[s][i])
      flush_satellite(s);
    else
      beacon_slot(s);
  }

  // --- report materialization ----------------------------------------

  void materialize_reports(double limit, bool inclusive) {
    while (!report_heap_.empty()) {
      const auto [t, n] = report_heap_.top();
      if (inclusive ? t > limit : t >= limit) break;
      report_heap_.pop();
      generate_report(n, t);
      nodes_.next_report_s[n] += nodes_.interval_s[n];
      if (nodes_.next_report_s[n] < duration_s())
        report_heap_.emplace(nodes_.next_report_s[n], n);
    }
  }

  void generate_report(std::size_t n, double t) {
    const std::uint64_t seq = nodes_.next_seq[n]++;
    trace::UplinkRecord rec;
    rec.sequence = seq;
    rec.node = node_names_[n];
    rec.payload_bytes = nodes_.payload_bytes[n];
    rec.generated_unix_s = sim_.epoch_unix_s() + t;
    records_[n].push_back(std::move(rec));
    if (!nodes_.push_seq(n, seq)) {
      ++local_drops_;
      return;  // record stays undelivered
    }
  }

  // --- beacon slot ----------------------------------------------------

  /// Per-(beacon tick) cached footprint geometry for one location.
  struct LocGeo {
    std::uint64_t stamp = 0;
    bool in_footprint = false;
    bool masked = false;
    orbit::LookAngles look;
    double doppler_rate = 0.0;
  };

  /// Lazily computed, per-tick cached visibility + geometry of `loc`
  /// from satellite `s`. Same-location nodes share one SGP4 propagation
  /// per tick instead of one per node; the per-(sat, loc) window cursor
  /// replaces the legacy linear in_window() scan (timeline times are
  /// non-decreasing per satellite, windows are chronological and
  /// disjoint, and the jd >= aos && jd <= los predicate is unchanged).
  const LocGeo& loc_geometry(std::size_t s, std::size_t loc, JulianDate jd) {
    LocGeo& g = loc_geo_[loc];
    if (g.stamp == tick_stamp_) return g;
    g.stamp = tick_stamp_;
    const std::vector<ContactWindow>& ws = node_windows_[s][loc];
    std::uint32_t& cur = window_cursor_[s][loc];
    while (cur < ws.size() && jd > ws[cur].los_jd) ++cur;
    g.in_footprint =
        cur < ws.size() && jd >= ws[cur].aos_jd && jd <= ws[cur].los_jd;
    if (!g.in_footprint) return g;
    const orbit::ElevationSampler sampler(satellites_[s].propagator,
                                          locations_[loc]);
    g.look = sampler.look(jd);
    g.masked = g.look.elevation_deg < cfg_.visibility_mask_deg;
    if (g.masked) return g;
    // Doppler rate via one-second finite difference (legacy computes the
    // second sample only for unmasked geometry; keep that order).
    const orbit::LookAngles look1 =
        sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
    const double f0 = orbit::doppler_shift_hz(g.look.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    const double f1 = orbit::doppler_shift_hz(look1.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    g.doppler_rate = f1 - f0;
    return g;
  }

  struct SlotResponder {
    std::size_t node;
    Transmission tx;
    phy::LoraParams uplink_params;
    phy::LinkState uplink_state;
    orbit::LookAngles look;
    double doppler_rate;
  };

  /// One node's response decision for the current beacon. Replicates the
  /// legacy per-node draw order exactly: beacon link state, beacon
  /// decode, then (only for a node with a queued report and a free
  /// radio) the uplink link state.
  void consider_node(std::size_t s, std::size_t n, sim::SimTime now,
                     JulianDate jd, channel::Weather wx, sim::Rng& rng,
                     std::vector<SlotResponder>& responders) {
    const std::size_t loc = nodes_.loc[n];
    const LocGeo& g = loc_geometry(s, loc, jd);
    if (!g.in_footprint || g.masked) return;

    phy::LinkConfig beacon_cfg = cfg_.downlink;
    beacon_cfg.rx_antenna = nodes_.antenna[n];
    const phy::LinkState beacon_state = phy::draw_link_state(
        beacon_cfg, g.look, wx, g.doppler_rate, rng);
    if (!error_model_.receive(beacon_state, beacon_cfg.lora,
                              cfg_.beacon.payload_bytes, rng))
      return;
    ++counters_.beacons_heard;
    if (nodes_.empty(n)) return;
    if (now < nodes_.busy_until[n]) return;  // half-duplex: radio busy

    phy::LinkConfig up_cfg = cfg_.uplink;
    up_cfg.tx_antenna = nodes_.antenna[n];
    if (cfg_.adaptive_sf) {
      up_cfg.lora.sf = phy::choose_spreading_factor(
          beacon_state.snr_db + cfg_.adr_uplink_advantage_db, 6.0);
    }
    phy::LinkState up_state =
        phy::draw_link_state(up_cfg, g.look, wx, g.doppler_rate, rng);
    if (cfg_.doppler_precompensation) {
      up_state.doppler.shift_hz *= cfg_.precompensation_residual;
      up_state.doppler.rate_hz_per_s *= cfg_.precompensation_residual;
    }

    SlotResponder r;
    r.node = n;
    r.uplink_params = up_cfg.lora;
    r.uplink_state = up_state;
    r.look = g.look;
    r.doppler_rate = g.doppler_rate;
    responders.push_back(r);
  }

  void beacon_slot(std::size_t s) {
    ++counters_.beacons_sent;
    ++tick_stamp_;
    const sim::SimTime now = sim_.now();
    const JulianDate jd = jd_at(now);
    const channel::Weather wx = weather_at(now);
    sim::Rng& rng = sim_.rng("dts-channel");

    std::vector<SlotResponder> responders;
    // Bit-parity mode: every node is considered in index order, so the
    // RNG stream advances exactly as in the legacy engine (including
    // the beacon draw for nodes with nothing to send).
    for (std::size_t n = 0; n < nodes_.count; ++n)
      consider_node(s, n, now, jd, wx, rng, responders);
    if (responders.empty()) return;

    double max_toa = 0.0;
    for (const SlotResponder& r : responders) {
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes[r.node]);
      max_toa = std::max(max_toa, toa);
    }
    std::vector<double> offsets;
    if (cfg_.uplink_access == UplinkAccess::kScheduled) {
      offsets = assign_subslots(responders.size(), max_toa,
                                cfg_.beacon.period_s);
    } else {
      offsets.reserve(responders.size());
      for (std::size_t i = 0; i < responders.size(); ++i)
        offsets.push_back(
            rng.uniform(0.3, std::max(0.4, cfg_.beacon.period_s * 0.6)));
    }
    for (std::size_t i = 0; i < responders.size(); ++i) {
      SlotResponder& r = responders[i];
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes[r.node]);
      r.tx = Transmission{static_cast<std::uint64_t>(r.node),
                          now + offsets[i], now + offsets[i] + toa,
                          r.uplink_state.rssi_dbm};
      nodes_.busy_until[r.node] = r.tx.end;
    }

    std::vector<Transmission> txs;
    txs.reserve(responders.size());
    for (const SlotResponder& r : responders) txs.push_back(r.tx);

    for (const SlotResponder& r : responders)
      process_uplink(s, r, txs, responders.size(), wx, rng);
  }

  void process_uplink(std::size_t s, const SlotResponder& r,
                      const std::vector<Transmission>& all_txs,
                      std::size_t concurrency, channel::Weather wx,
                      sim::Rng& rng) {
    const std::size_t n = r.node;
    if (nodes_.empty(n)) return;  // popped by an earlier event
    const std::uint64_t seq = nodes_.front(n);
    const int conc = static_cast<int>(std::min<std::size_t>(
        concurrency, static_cast<std::size_t>(std::numeric_limits<int>::max())));

    ++counters_.uplink_attempts;
    nodes_.tx_seconds[n] += r.tx.end - r.tx.start;
    ++nodes_.head_attempts[n];
    trace::UplinkRecord* rec = &record_at(n, seq);
    ++rec->dts_attempts;
    rec->max_concurrent_tx = std::max(rec->max_concurrent_tx, conc);
    const double tx_start_unix = sim_.epoch_unix_s() + r.tx.start;
    if (rec->first_tx_unix_s < 0.0 || tx_start_unix < rec->first_tx_unix_s)
      rec->first_tx_unix_s = tx_start_unix;
    if (nodes_.head_first_tx_s[n] < 0.0)
      nodes_.head_first_tx_s[n] = r.tx.start;

    bool survived = survives_collisions(r.tx, all_txs, cfg_.mac);
    if (!survived) ++counters_.uplinks_collided;

    if (survived && cfg_.congestion.enabled) {
      double loss = background_loss_probability(s, r.tx.start);
      if (cfg_.uplink_access == UplinkAccess::kScheduled)
        loss *= cfg_.scheduled_background_factor;
      if (rng.chance(loss)) {
        survived = false;
        ++counters_.background_losses;
        ++counters_.uplinks_collided;
      }
    }

    const bool decoded =
        survived && error_model_.receive(r.uplink_state, r.uplink_params,
                                         nodes_.payload_bytes[n], rng);

    bool acked = false;
    if (decoded) {
      ++counters_.uplinks_received;
      const bool already_stored = nodes_.head_stored[n] != 0;
      bool stored = already_stored;
      if (!already_stored) {
        StoredPacket sp;
        sp.packet.sequence = seq;
        sp.packet.node_index = static_cast<std::int64_t>(n);
        sp.packet.payload_bytes = nodes_.payload_bytes[n];
        sp.packet.generated_at = gen_time_s(n, seq);
        sp.satellite_rx_at = r.tx.end;
        sp.satellite_index = static_cast<std::int64_t>(s);
        sp.first_tx_at = nodes_.head_first_tx_s[n];
        stored = satellites_[s].buffer.store(sp);
        if (stored) {
          nodes_.head_stored[n] = 1;
          if (rec) {
            rec->satellite_rx_unix_s = sim_.epoch_unix_s() + r.tx.end;
            rec->via_satellite = satellites_[s].name;
          }
        } else {
          ++counters_.satellite_buffer_drops;
        }
      } else {
        ++counters_.duplicate_uplinks;
      }
      if (stored) {
        ++counters_.acks_sent;
        phy::LinkConfig ack_cfg = cfg_.downlink;
        ack_cfg.tx_power_dbm += cfg_.ack_power_boost_db;
        ack_cfg.rx_antenna = nodes_.antenna[n];
        const phy::LinkState ack_state = phy::draw_link_state(
            ack_cfg, r.look, wx, r.doppler_rate, rng);
        acked = error_model_.receive(ack_state, ack_cfg.lora,
                                     cfg_.ack_payload_bytes, rng);
      }
    }

    if (acked) {
      ++counters_.acks_received;
      pop_head(n);
      return;
    }
    if (nodes_.head_attempts[n] > nodes_.max_retx[n]) {
      ++packets_abandoned_;
      pop_head(n);
    }
  }

  void pop_head(std::size_t n) {
    nodes_.pop_front(n);
    nodes_.head_attempts[n] = 0;
    nodes_.head_stored[n] = 0;
    nodes_.head_first_tx_s[n] = -1.0;
  }

  /// Deterministic per-(satellite, time-block) background loss, cached
  /// per satellite: the legacy engine reseeds a fresh Rng from
  /// derive_seed per query; one cache entry per satellite serves the
  /// whole block with identical values (same seed string, same draws).
  [[nodiscard]] double background_loss_probability(std::size_t sat,
                                                   sim::SimTime t) {
    const auto& cg = cfg_.congestion;
    const auto block = static_cast<std::uint64_t>(t / cg.block_duration_s);
    auto& [cached_block, cached_loss] = background_cache_[sat];
    if (cached_block == block) return cached_loss;
    sim::Rng field(sim::derive_seed(
        cfg_.seed, "congestion-" + std::to_string(sat) + "-" +
                       std::to_string(block)));
    cached_block = block;
    if (field.chance(cg.congested_probability))
      cached_loss = cg.congested_loss;
    else
      cached_loss = std::min(field.exponential(cg.nominal_load_mean), 1.0);
    return cached_loss;
  }

  // --- ground-station flush -------------------------------------------

  void flush_satellite(std::size_t s) {
    // Legacy order contract: the empty-buffer early-out happens before
    // the backhaul stream is touched.
    if (satellites_[s].buffer.size() == 0) return;
    sim::Rng& rng = sim_.rng("dts-backhaul");
    const std::vector<StoredPacket> drained =
        cfg_.downlink_packets_per_contact == 0
            ? satellites_[s].buffer.flush()
            : satellites_[s].buffer.flush_up_to(
                  cfg_.downlink_packets_per_contact);
    for (const StoredPacket& sp : drained) {
      if (rng.chance(cfg_.delivery_loss_probability)) continue;
      const double arrival = sim_.now() + backhaul_.draw_delay_s(rng);
      trace::UplinkRecord& rec = record_at(
          static_cast<std::size_t>(sp.packet.node_index),
          sp.packet.sequence);
      const double arrival_unix = sim_.epoch_unix_s() + arrival;
      if (!rec.delivered || arrival_unix < rec.server_rx_unix_s) {
        rec.server_rx_unix_s = arrival_unix;
        rec.delivered = true;
      }
    }
  }

  /// Record for (node, seq). Sequence numbering guarantees index == seq
  /// today; if a future change breaks that invariant, grow with
  /// placeholder records instead of indexing out of bounds.
  trace::UplinkRecord& record_at(std::size_t n, std::uint64_t seq) {
    std::vector<trace::UplinkRecord>& recs = records_[n];
    if (seq >= recs.size()) {
      trace::UplinkRecord filler;
      filler.node = node_names_[n];
      while (recs.size() <= seq) {
        filler.sequence = recs.size();
        recs.push_back(filler);
      }
    }
    return recs[seq];
  }

  // --- assembly -------------------------------------------------------

  DtsNetworkResult assemble_result() {
    DtsNetworkResult result;
    result.counters = counters_;
    for (std::size_t n = 0; n < nodes_.count; ++n)
      for (trace::UplinkRecord& rec : records_[n])
        result.uplinks.push_back(std::move(rec));
    for (std::size_t n = 0; n < nodes_.count; ++n)
      result.node_residency.push_back(node_residency(n));
    detail::aggregate_from_uplinks(
        result.uplinks, sim_.epoch_unix_s() + duration_s(),
        detail::effective_tail_exclusion_s(cfg_), result.agg);
    for (const energy::ResidencyTracker& t : result.node_residency)
      for (int m = 0; m < energy::kModeCount; ++m)
        result.agg.fleet_residency.record(
            static_cast<energy::Mode>(m),
            t.seconds_in(static_cast<energy::Mode>(m)));
    result.agg.local_buffer_drops = local_drops_;
    result.agg.packets_abandoned = packets_abandoned_;
    publish_metrics(result);
    return result;
  }

  /// Per-location theoretical visibility seconds over the run (the node
  /// keeps its receiver on through every predicted pass — same model as
  /// the legacy per-node accounting, computed once per location).
  [[nodiscard]] double location_rx_seconds(std::size_t loc) const {
    std::vector<ContactWindow> all;
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      for (const ContactWindow& w : node_windows_[s][loc])
        all.push_back(w);
    return orbit::daily_visible_seconds(all, cfg_.start_jd,
                                        cfg_.start_jd + cfg_.duration_days) *
           cfg_.duration_days;
  }

  energy::ResidencyTracker node_residency(std::size_t n) {
    const std::size_t loc = nodes_.loc[n];
    auto it = loc_rx_seconds_.find(loc);
    if (it == loc_rx_seconds_.end())
      it = loc_rx_seconds_.emplace(loc, location_rx_seconds(loc)).first;
    const double rx_s = it->second;
    const double tx_s = nodes_.tx_seconds[n];
    energy::ResidencyTracker t;
    t.record(energy::Mode::kTx, tx_s);
    t.record(energy::Mode::kRx, std::max(rx_s - tx_s, 0.0));
    t.record(energy::Mode::kSleep,
             std::max(duration_s() - std::max(rx_s, tx_s), 0.0));
    return t;
  }

  [[nodiscard]] std::size_t timeline_bytes() const {
    std::size_t b = 0;
    for (std::size_t s = 0; s < timeline_time_.size(); ++s)
      b += timeline_time_[s].capacity() * sizeof(double) +
           timeline_is_flush_[s].capacity();
    return b;
  }

  [[nodiscard]] std::size_t records_bytes() const {
    std::size_t b = 0;
    for (const auto& recs : records_)
      b += recs.capacity() * sizeof(trace::UplinkRecord);
    return b;
  }

  void publish_metrics(const DtsNetworkResult& result) {
    if (cfg_.metrics == nullptr) return;
    obs::MetricsRegistry& m = *cfg_.metrics;
    m.counter("net.dts.beacons_sent").add(counters_.beacons_sent);
    m.counter("net.dts.beacons_heard").add(counters_.beacons_heard);
    m.counter("net.dts.uplink_attempts").add(counters_.uplink_attempts);
    m.counter("net.dts.uplinks_received").add(counters_.uplinks_received);
    m.counter("net.dts.uplinks_collided").add(counters_.uplinks_collided);
    m.counter("net.dts.acks_sent").add(counters_.acks_sent);
    m.counter("net.dts.acks_received").add(counters_.acks_received);
    m.counter("net.dts.duplicate_uplinks").add(counters_.duplicate_uplinks);
    m.counter("net.dts.satellite_buffer_drops")
        .add(counters_.satellite_buffer_drops);
    m.counter("net.dts.background_losses").add(counters_.background_losses);
    m.counter("net.dts.reports_generated").add(result.uplinks.size());
    m.gauge("net.dts.delivered_fraction").set(result.delivered_fraction());
    m.gauge("net.dts.mean_end_to_end_s").set(result.mean_end_to_end_s());

    // Population-scale memory/throughput gauges: the evidence that a
    // mega-fleet run stays bounded (CI's scale-smoke job asserts these).
    m.gauge("net.dts.scale.nodes").set(static_cast<double>(nodes_.count));
    m.gauge("net.dts.scale.node_store_bytes")
        .set(static_cast<double>(nodes_.approx_bytes()));
    m.gauge("net.dts.scale.timeline_bytes")
        .set(static_cast<double>(timeline_bytes()));
    m.gauge("net.dts.scale.records_bytes")
        .set(static_cast<double>(records_bytes()));
    std::size_t peak = 0;
    for (const Satellite& s : satellites_)
      peak = std::max(peak, s.buffer.peak_occupancy());
    m.gauge("net.dts.scale.sat_buffer_peak_packets")
        .set(static_cast<double>(peak));
    m.gauge("net.dts.scale.peak_rss_bytes")
        .set(static_cast<double>(obs::process_peak_rss_bytes()));
    sim_.publish_metrics();
  }

  DtsNetworkConfig cfg_;
  sim::Simulation sim_;
  phy::ErrorModel error_model_;
  BackhaulModel backhaul_;

  std::vector<orbit::Tle> tles_;
  std::vector<Satellite> satellites_;
  NodeStore nodes_;
  std::vector<orbit::Geodetic> locations_;
  // node_windows_[sat][location], gs_windows_[sat][gs]
  std::vector<std::vector<std::vector<ContactWindow>>> node_windows_;
  std::vector<std::vector<std::vector<ContactWindow>>> gs_windows_;
  std::vector<std::vector<std::uint32_t>> window_cursor_;

  // Per-satellite merged timelines (parallel vectors; one chain each).
  std::vector<std::vector<double>> timeline_time_;
  std::vector<std::vector<std::uint8_t>> timeline_is_flush_;

  // Activation heap: (next report time, node); node order at equal
  // times matches the legacy scheduler's insertion order.
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>,
                      std::greater<>>
      report_heap_;

  // Per-tick geometry cache, keyed by a stamp bumped each beacon tick.
  std::uint64_t tick_stamp_ = 0;
  std::vector<LocGeo> loc_geo_;
  /// Per-satellite (block, loss) cache for the congestion field.
  std::vector<std::pair<std::uint64_t, double>> background_cache_;

  std::vector<std::vector<trace::UplinkRecord>> records_;
  std::vector<std::string> node_names_;
  std::unordered_map<std::size_t, double> loc_rx_seconds_;

  DtsCounters counters_;
  std::uint64_t local_drops_ = 0;
  std::uint64_t packets_abandoned_ = 0;
};

// =====================================================================
// Sharded population-scale engine.
// =====================================================================
//
// Above cfg.trace_node_threshold nodes the run is executed as a
// deterministic parallel shard schedule instead of a serial event loop:
//
//   * the run is cut into fixed kSliceSeconds time slices; inside each
//     slice, satellites whose footprints overlap a common ground
//     location (transitively) form one shard (sim::ConflictScheduler).
//     Shards of a slice share no mutable state — node SoA rows, active
//     lists, per-location report heaps, window cursors and satellite
//     buffers are all owned by exactly one shard — so they run
//     concurrently on sim::ThreadPool with a barrier between slices;
//   * inside a shard, the member satellites' timeline entries are k-way
//     merged by (time, satellite index), so the per-location event
//     order is a pure function of the config;
//   * every random draw comes from a counter-based stream keyed by the
//     globally unique timeline-entry id: a beacon slot seeds one Rng
//     from derive_stream(slot_root, entry_id) shared by every draw the
//     slot makes (in schedule-fixed iteration order), and a flush entry
//     seeds from derive_stream(flush_root, entry_id). Draw values
//     therefore never depend on which thread ran what when;
//   * results accumulate into per-satellite DtsCounters/DtsAggregates
//     partials merged in satellite-index order after the run, and
//     end-of-run per-node accounting (remaining report generation,
//     attempt-histogram closeout, fleet energy residency) runs over
//     fixed-size node blocks merged in block order.
//
// Consequence: DtsAggregates is bit-identical for every sim_threads
// value (tests/test_dts_parallel.cpp asserts every histogram bin,
// counter and residency mode for threads in {1, 2, 4, hw}).
class ShardSimulator {
 public:
  explicit ShardSimulator(const DtsNetworkConfig& cfg)
      : cfg_(cfg),
        error_model_(cfg.error_model),
        backhaul_(cfg.delivery_backhaul),
        duration_s_(cfg.duration_days * 86400.0),
        eligible_before_(duration_s_ -
                         detail::effective_tail_exclusion_s(cfg)),
        slot_root_(sim::derive_seed(cfg.seed, "dts-slot")),
        flush_root_(sim::derive_seed(cfg.seed, "dts-flush")) {
    detail::validate_dts_config(cfg);
    build_satellites();
    build_nodes();
    predict_windows();
  }

  DtsNetworkResult run() {
    resolve_pool();
    build_timelines();
    build_schedule();
    execute();
    return assemble_result();
  }

 private:
  /// Conflict-schedule granularity. Shorter slices split footprints
  /// more finely (more parallelism) at the cost of more barriers; 600 s
  /// is about one LEO footprint dwell, so a satellite rarely spans more
  /// locations per slice than it actually covers per pass.
  static constexpr double kSliceSeconds = 600.0;
  /// End-of-run reductions run over fixed node blocks (never
  /// thread-count-derived ranges) so double sums merge identically for
  /// any worker count.
  static constexpr std::size_t kNodeBlock = 8192;

  [[nodiscard]] JulianDate jd_at(double t) const {
    return cfg_.start_jd + t / orbit::kSecondsPerDay;
  }
  [[nodiscard]] channel::Weather weather_at(double t) const {
    if (cfg_.daily_weather.empty()) return channel::Weather::kSunny;
    const auto day = static_cast<std::size_t>(t / 86400.0);
    return cfg_.daily_weather[day % cfg_.daily_weather.size()];
  }
  [[nodiscard]] double gen_time_s(std::size_t n, std::uint64_t seq) const {
    return nodes_.phase_s[n] +
           static_cast<double>(seq) * nodes_.interval_s[n];
  }

  void resolve_pool() {
    threads_ = cfg_.sim_threads == 0 ? sim::ThreadPool::hardware_threads()
                                     : cfg_.sim_threads;
    if (threads_ <= 1) return;  // inline execution, no pool
    if (cfg_.sim_threads == 0) {
      pool_ = &sim::ThreadPool::shared();
    } else {
      owned_pool_ = std::make_unique<sim::ThreadPool>(threads_);
      pool_ = owned_pool_.get();
    }
  }

  void build_satellites() {
    tles_ = orbit::generate_tles(cfg_.constellation, cfg_.start_jd);
    satellites_.reserve(tles_.size());
    for (const orbit::Tle& tle : tles_) {
      satellites_.emplace_back(tle.name, cfg_.constellation.name, tle,
                               cfg_.satellite_buffer_capacity);
      satellites_.back().buffer = StoreAndForwardBuffer(
          cfg_.satellite_buffer_capacity, cfg_.satellite_drop_policy);
    }
  }

  void build_nodes() {
    const std::size_t count = detail::dts_node_count(cfg_);
    std::map<LocationKey, std::size_t> loc_index;
    std::vector<std::uint32_t> node_loc;
    node_loc.reserve(count);
    if (cfg_.fleet.count > 0) {
      for (const orbit::Geodetic& site : cfg_.fleet.sites) {
        const LocationKey k = key_of(site);
        if (loc_index.emplace(k, locations_.size()).second)
          locations_.push_back(site);
      }
      const std::size_t sites = cfg_.fleet.sites.size();
      for (std::size_t n = 0; n < count; ++n)
        node_loc.push_back(static_cast<std::uint32_t>(
            loc_index.at(key_of(cfg_.fleet.sites[n % sites]))));
    } else {
      for (const IotNodeConfig& nc : cfg_.nodes) {
        const LocationKey k = key_of(nc.location);
        if (loc_index.emplace(k, locations_.size()).second)
          locations_.push_back(nc.location);
      }
      for (const IotNodeConfig& nc : cfg_.nodes)
        node_loc.push_back(static_cast<std::uint32_t>(
            loc_index.at(key_of(nc.location))));
    }
    nodes_.init(cfg_, node_loc);
    active_.resize(locations_.size());
    active_pos_.assign(count, kNoActive);

    // Per-location report heaps (the sharded split of the old global
    // activation heap: a location is owned by one shard per slice, so
    // its heap needs no lock).
    loc_heap_.resize(locations_.size());
    for (std::size_t n = 0; n < count; ++n)
      if (nodes_.next_report_s[n] < duration_s_)
        loc_heap_[nodes_.loc[n]].emplace(nodes_.next_report_s[n], n);
  }

  void predict_windows() {
    orbit::PassPredictionOptions opts;
    opts.min_elevation_deg = cfg_.visibility_mask_deg;
    opts.coarse_step_s = cfg_.pass_scan_step_s;
    const JulianDate end_jd = cfg_.start_jd + cfg_.duration_days;

    node_windows_.assign(
        satellites_.size(),
        std::vector<std::vector<ContactWindow>>(locations_.size()));
    gs_windows_.assign(
        satellites_.size(),
        std::vector<std::vector<ContactWindow>>(cfg_.ground_stations.size()));

    std::vector<orbit::GridObserver> observers;
    observers.reserve(locations_.size() + cfg_.ground_stations.size());
    for (const orbit::Geodetic& loc : locations_)
      observers.push_back(orbit::GridObserver{loc});
    for (const GroundStationSite& gs : cfg_.ground_stations)
      observers.push_back(
          orbit::GridObserver{gs.location, gs.min_elevation_deg});

    auto windows = orbit::predict_passes_grid_cached(
        tles_, observers, cfg_.start_jd, end_jd, opts, cfg_.pass_threads,
        &orbit::ContactWindowCache::global(), cfg_.metrics);
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      for (std::size_t l = 0; l < locations_.size(); ++l)
        node_windows_[s][l] = std::move(windows[s][l]);
      for (std::size_t g = 0; g < cfg_.ground_stations.size(); ++g)
        gs_windows_[s][g] = std::move(windows[s][locations_.size() + g]);
    }

    window_cursor_.assign(satellites_.size(),
                          std::vector<std::uint32_t>(locations_.size(), 0));
    loc_geo_.assign(locations_.size(), LocGeo{});
    background_cache_.assign(
        satellites_.size(),
        {std::numeric_limits<std::uint64_t>::max(), 0.0});
  }

  /// Same merged per-satellite timeline as the exact engine (beacon
  /// ticks deduped, flushes stable-sorted behind beacons at ties), but
  /// consumed as plain arrays by the shard schedule instead of event
  /// chains.
  void build_timelines() {
    timeline_time_.resize(satellites_.size());
    timeline_is_flush_.resize(satellites_.size());
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      const double phase =
          cfg_.beacon.period_s * static_cast<double>(s * 29 % 97) / 97.0;
      std::vector<double> ticks;
      for (const auto& windows : node_windows_[s]) {
        for (const ContactWindow& w : windows) {
          const double a =
              (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double b =
              (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double first =
              phase +
              std::ceil((a - phase) / cfg_.beacon.period_s) *
                  cfg_.beacon.period_s;
          for (double t = first; t <= b; t += cfg_.beacon.period_s)
            if (t >= 0.0 && t < duration_s_) ticks.push_back(t);
        }
      }
      std::sort(ticks.begin(), ticks.end());
      ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());

      std::vector<double> flushes;
      for (std::size_t g = 0; g < gs_windows_[s].size(); ++g) {
        for (const ContactWindow& w : gs_windows_[s][g]) {
          const double aos =
              (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          const double los =
              (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay;
          for (const double t : gs_flush_times(aos, los))
            if (t >= 0.0 && t < duration_s_) flushes.push_back(t);
        }
      }

      std::vector<double>& times = timeline_time_[s];
      std::vector<std::uint8_t>& kinds = timeline_is_flush_[s];
      times.reserve(ticks.size() + flushes.size());
      kinds.reserve(ticks.size() + flushes.size());
      for (const double t : ticks) {
        times.push_back(t);
        kinds.push_back(0);
      }
      for (const double t : flushes) {
        times.push_back(t);
        kinds.push_back(1);
      }
      std::vector<std::size_t> order(times.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t x, std::size_t y) {
                         if (times[x] != times[y]) return times[x] < times[y];
                         return kinds[x] < kinds[y];
                       });
      std::vector<double> st(times.size());
      std::vector<std::uint8_t> sk(times.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        st[i] = times[order[i]];
        sk[i] = kinds[order[i]];
      }
      times = std::move(st);
      kinds = std::move(sk);
    }

    entry_base_.assign(satellites_.size() + 1, 0);
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      entry_base_[s + 1] = entry_base_[s] + timeline_time_[s].size();
  }

  [[nodiscard]] std::uint32_t slice_of(double t) const {
    return static_cast<std::uint32_t>(t / kSliceSeconds);
  }

  void build_schedule() {
    slice_count_ = slice_of(std::nextafter(duration_s_, 0.0)) + 1;
    sim::ConflictScheduler sched(
        static_cast<std::uint32_t>(satellites_.size()));

    // Footprint touches: every (satellite, location) contact window
    // claims its location for each slice the window overlaps; the same
    // tuples feed the per-(slice, satellite) footprint location lists
    // the slot loop iterates.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        slice_pairs(slice_count_);
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      for (std::size_t l = 0; l < locations_.size(); ++l) {
        for (const ContactWindow& w : node_windows_[s][l]) {
          const double a = std::max(
              (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay, 0.0);
          const double b = std::min(
              (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay,
              std::nextafter(duration_s_, 0.0));
          if (b < a) continue;
          const std::uint32_t k1 =
              std::min(slice_of(b), slice_count_ - 1);
          for (std::uint32_t k = slice_of(a); k <= k1; ++k) {
            sched.touch(k, static_cast<std::uint32_t>(s),
                        static_cast<std::uint64_t>(l));
            slice_pairs[k].emplace_back(
                static_cast<std::uint32_t>(s),
                static_cast<std::uint32_t>(l));
          }
        }
      }
    }
    // Every timeline entry keeps its satellite in the slice even when no
    // footprint touch links it (flush-only slices).
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      for (const double t : timeline_time_[s])
        sched.activate(slice_of(t), static_cast<std::uint32_t>(s));
    schedule_ = sched.build();
    if (schedule_.size() < slice_count_) schedule_.resize(slice_count_);

    // Per-(slice, satellite) sorted footprint location lists.
    slice_footprints_.assign(slice_count_, {});
    for (std::uint32_t k = 0; k < slice_count_; ++k) {
      auto& pairs = slice_pairs[k];
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      auto& fps = slice_footprints_[k];
      for (const auto& [s, l] : pairs) {
        if (fps.empty() || fps.back().sat != s)
          fps.push_back(SatFootprint{s, {}});
        fps.back().locs.push_back(l);
      }
    }

    // Per-satellite slice boundaries into the (time-sorted) timeline.
    slice_begin_.assign(satellites_.size(), {});
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      std::vector<std::uint32_t>& bounds = slice_begin_[s];
      bounds.assign(slice_count_ + 1,
                    static_cast<std::uint32_t>(timeline_time_[s].size()));
      std::uint32_t i = 0;
      for (std::uint32_t k = 0; k < slice_count_; ++k) {
        while (i < timeline_time_[s].size() &&
               slice_of(timeline_time_[s][i]) < k)
          ++i;
        bounds[k] = i;
      }
    }
  }

  void execute() {
    sat_counters_.assign(satellites_.size(), DtsCounters{});
    sat_agg_.assign(satellites_.size(), DtsAggregates{});
    for (std::uint32_t k = 0; k < slice_count_; ++k) {
      const auto& shards = schedule_[k].shards;
      if (shards.empty()) continue;
      total_shards_ += shards.size();
      for (const auto& members : shards)
        max_shard_members_ = std::max(max_shard_members_, members.size());
      if (pool_ != nullptr && shards.size() > 1) {
        pool_->parallel_for(shards.size(), [&](std::size_t si) {
          run_shard(k, shards[si]);
        });
      } else {
        for (const auto& members : shards) run_shard(k, members);
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>* footprint_locs(
      std::uint32_t k, std::uint32_t s) const {
    const auto& fps = slice_footprints_[k];
    auto it = std::lower_bound(
        fps.begin(), fps.end(), s,
        [](const SatFootprint& f, std::uint32_t sat) { return f.sat < sat; });
    if (it == fps.end() || it->sat != s) return nullptr;
    return &it->locs;
  }

  /// K-way merge of the shard's member timelines over slice k, by
  /// (time, satellite index) — the same total order a serial elaboration
  /// of the whole slice would use.
  void run_shard(std::uint32_t k, const std::vector<std::uint32_t>& members) {
    struct Cursor {
      std::uint32_t s, i, end;
      const std::vector<std::uint32_t>* locs;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(members.size());
    for (const std::uint32_t s : members) {
      const std::uint32_t b = slice_begin_[s][k];
      const std::uint32_t e = slice_begin_[s][k + 1];
      if (b < e) cursors.push_back(Cursor{s, b, e, footprint_locs(k, s)});
    }
    while (!cursors.empty()) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cursors.size(); ++c) {
        const double tb = timeline_time_[cursors[best].s][cursors[best].i];
        const double tc = timeline_time_[cursors[c].s][cursors[c].i];
        if (tc < tb || (tc == tb && cursors[c].s < cursors[best].s))
          best = c;
      }
      Cursor& cur = cursors[best];
      const double t = timeline_time_[cur.s][cur.i];
      const std::uint64_t gid = entry_base_[cur.s] + cur.i;
      if (timeline_is_flush_[cur.s][cur.i])
        flush_satellite(cur.s, gid, t);
      else
        beacon_slot(cur.s, gid, t, cur.locs);
      if (++cur.i == cur.end) {
        cursors[best] = cursors.back();
        cursors.pop_back();
      }
    }
  }

  // --- report materialization (per location, lazily at its slots) -----

  void activate(std::size_t n) {
    std::vector<std::uint32_t>& list = active_[nodes_.loc[n]];
    active_pos_[n] = static_cast<std::uint32_t>(list.size());
    list.push_back(static_cast<std::uint32_t>(n));
  }

  void deactivate(std::size_t n) {
    std::vector<std::uint32_t>& list = active_[nodes_.loc[n]];
    const std::uint32_t pos = active_pos_[n];
    const std::uint32_t last = list.back();
    list[pos] = last;
    active_pos_[last] = pos;
    list.pop_back();
    active_pos_[n] = kNoActive;
  }

  void generate_report(std::size_t n, DtsAggregates& agg) {
    const std::uint64_t seq = nodes_.next_seq[n]++;
    ++agg.reports_generated;
    if (gen_time_s(n, seq) <= eligible_before_) ++agg.eligible_generated;
    if (!nodes_.push_seq(n, seq)) {
      ++agg.local_buffer_drops;
      return;
    }
    if (nodes_.buf_size[n] == 1) activate(n);
  }

  void materialize_loc(std::size_t loc, double t, DtsAggregates& agg) {
    LocHeap& heap = loc_heap_[loc];
    while (!heap.empty() && heap.top().first <= t) {
      const std::uint64_t n = heap.top().second;
      heap.pop();
      generate_report(static_cast<std::size_t>(n), agg);
      nodes_.next_report_s[n] += nodes_.interval_s[n];
      if (nodes_.next_report_s[n] < duration_s_)
        heap.emplace(nodes_.next_report_s[n], n);
    }
  }

  // --- beacon slot ----------------------------------------------------

  /// Per-(slot entry) cached footprint geometry, stamped with the global
  /// entry id so same-location nodes share one SGP4 propagation. A
  /// location is only ever touched by its owning shard within a slice,
  /// so the cache row is race-free.
  struct LocGeo {
    std::uint64_t stamp = 0;
    bool in_footprint = false;
    bool masked = false;
    orbit::LookAngles look;
    double doppler_rate = 0.0;
  };

  const LocGeo& loc_geometry(std::size_t s, std::size_t loc, JulianDate jd,
                             std::uint64_t stamp) {
    LocGeo& g = loc_geo_[loc];
    if (g.stamp == stamp) return g;
    g.stamp = stamp;
    const std::vector<ContactWindow>& ws = node_windows_[s][loc];
    std::uint32_t& cur = window_cursor_[s][loc];
    while (cur < ws.size() && jd > ws[cur].los_jd) ++cur;
    g.in_footprint =
        cur < ws.size() && jd >= ws[cur].aos_jd && jd <= ws[cur].los_jd;
    if (!g.in_footprint) return g;
    const orbit::ElevationSampler sampler(satellites_[s].propagator,
                                          locations_[loc]);
    g.look = sampler.look(jd);
    g.masked = g.look.elevation_deg < cfg_.visibility_mask_deg;
    if (g.masked) return g;
    const orbit::LookAngles look1 =
        sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
    const double f0 = orbit::doppler_shift_hz(g.look.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    const double f1 = orbit::doppler_shift_hz(look1.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    g.doppler_rate = f1 - f0;
    return g;
  }

  struct SlotResponder {
    std::size_t node;
    Transmission tx;
    phy::LoraParams uplink_params;
    phy::LinkState uplink_state;
    orbit::LookAngles look;
    double doppler_rate;
  };

  void consider_node(std::size_t n, double now, channel::Weather wx,
                     const LocGeo& g, sim::Rng& rng, DtsCounters& ctr,
                     std::vector<SlotResponder>& responders) {
    phy::LinkConfig beacon_cfg = cfg_.downlink;
    beacon_cfg.rx_antenna = nodes_.antenna[n];
    const phy::LinkState beacon_state = phy::draw_link_state(
        beacon_cfg, g.look, wx, g.doppler_rate, rng);
    if (!error_model_.receive(beacon_state, beacon_cfg.lora,
                              cfg_.beacon.payload_bytes, rng))
      return;
    ++ctr.beacons_heard;
    if (nodes_.empty(n)) return;
    if (now < nodes_.busy_until[n]) return;  // half-duplex: radio busy

    phy::LinkConfig up_cfg = cfg_.uplink;
    up_cfg.tx_antenna = nodes_.antenna[n];
    if (cfg_.adaptive_sf) {
      up_cfg.lora.sf = phy::choose_spreading_factor(
          beacon_state.snr_db + cfg_.adr_uplink_advantage_db, 6.0);
    }
    phy::LinkState up_state =
        phy::draw_link_state(up_cfg, g.look, wx, g.doppler_rate, rng);
    if (cfg_.doppler_precompensation) {
      up_state.doppler.shift_hz *= cfg_.precompensation_residual;
      up_state.doppler.rate_hz_per_s *= cfg_.precompensation_residual;
    }
    responders.push_back(SlotResponder{n, Transmission{}, up_cfg.lora,
                                       up_state, g.look, g.doppler_rate});
  }

  void beacon_slot(std::uint32_t s, std::uint64_t gid, double t,
                   const std::vector<std::uint32_t>* locs) {
    DtsCounters& ctr = sat_counters_[s];
    DtsAggregates& agg = sat_agg_[s];
    ++ctr.beacons_sent;
    if (locs == nullptr) return;  // no footprint this slice
    const JulianDate jd = jd_at(t);
    const channel::Weather wx = weather_at(t);

    // One counter-based stream per slot entry, shared by every draw the
    // slot makes (beacon decodes, offsets, uplink resolution). The slot
    // runs entirely inside its owning shard and iterates locations and
    // active lists in schedule-fixed order, so the draw sequence is a
    // pure function of the config — and the mt19937_64 init cost is
    // amortized over the whole footprint instead of paid per node.
    sim::Rng rng(sim::derive_stream(slot_root_, gid));

    std::vector<SlotResponder> responders;
    for (const std::uint32_t loc : *locs) {
      materialize_loc(loc, t, agg);
      if (active_[loc].empty()) continue;
      const LocGeo& g = loc_geometry(s, loc, jd, gid + 1);
      if (!g.in_footprint || g.masked) continue;
      // Snapshot: consider_node never mutates active lists.
      for (const std::uint32_t n : active_[loc])
        consider_node(n, t, wx, g, rng, ctr, responders);
    }
    if (responders.empty()) return;

    double max_toa = 0.0;
    for (const SlotResponder& r : responders) {
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes[r.node]);
      max_toa = std::max(max_toa, toa);
    }
    std::vector<double> offsets;
    if (cfg_.uplink_access == UplinkAccess::kScheduled) {
      offsets = assign_subslots(responders.size(), max_toa,
                                cfg_.beacon.period_s);
    } else {
      offsets.reserve(responders.size());
      for (std::size_t i = 0; i < responders.size(); ++i)
        offsets.push_back(
            rng.uniform(0.3, std::max(0.4, cfg_.beacon.period_s * 0.6)));
    }
    for (std::size_t i = 0; i < responders.size(); ++i) {
      SlotResponder& r = responders[i];
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes[r.node]);
      r.tx = Transmission{static_cast<std::uint64_t>(r.node),
                          t + offsets[i], t + offsets[i] + toa,
                          r.uplink_state.rssi_dbm};
      nodes_.busy_until[r.node] = r.tx.end;
    }

    std::vector<Transmission> txs;
    txs.reserve(responders.size());
    for (const SlotResponder& r : responders) txs.push_back(r.tx);

    for (SlotResponder& r : responders)
      process_uplink(s, r, txs, wx, rng, ctr, agg);
  }

  void process_uplink(std::uint32_t s, SlotResponder& r,
                      const std::vector<Transmission>& all_txs,
                      channel::Weather wx, sim::Rng& rng, DtsCounters& ctr,
                      DtsAggregates& agg) {
    const std::size_t n = r.node;
    if (nodes_.empty(n)) return;  // popped by an earlier event
    const std::uint64_t seq = nodes_.front(n);

    ++ctr.uplink_attempts;
    nodes_.tx_seconds[n] += r.tx.end - r.tx.start;
    ++nodes_.head_attempts[n];
    if (nodes_.head_first_tx_s[n] < 0.0) {
      nodes_.head_first_tx_s[n] = r.tx.start;
      const double w = r.tx.start - gen_time_s(n, seq);
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
    }

    bool survived = survives_collisions(r.tx, all_txs, cfg_.mac);
    if (!survived) ++ctr.uplinks_collided;

    if (survived && cfg_.congestion.enabled) {
      double loss = background_loss_probability(s, r.tx.start);
      if (cfg_.uplink_access == UplinkAccess::kScheduled)
        loss *= cfg_.scheduled_background_factor;
      if (rng.chance(loss)) {
        survived = false;
        ++ctr.background_losses;
        ++ctr.uplinks_collided;
      }
    }

    const bool decoded =
        survived && error_model_.receive(r.uplink_state, r.uplink_params,
                                         nodes_.payload_bytes[n], rng);

    bool acked = false;
    if (decoded) {
      ++ctr.uplinks_received;
      const bool already_stored = nodes_.head_stored[n] != 0;
      bool stored = already_stored;
      if (!already_stored) {
        StoredPacket sp;
        sp.packet.sequence = seq;
        sp.packet.node_index = static_cast<std::int64_t>(n);
        sp.packet.payload_bytes = nodes_.payload_bytes[n];
        sp.packet.generated_at = gen_time_s(n, seq);
        sp.satellite_rx_at = r.tx.end;
        sp.satellite_index = static_cast<std::int64_t>(s);
        sp.first_tx_at = nodes_.head_first_tx_s[n];
        stored = satellites_[s].buffer.store(sp);
        if (stored)
          nodes_.head_stored[n] = 1;
        else
          ++ctr.satellite_buffer_drops;
      } else {
        ++ctr.duplicate_uplinks;
      }
      if (stored) {
        ++ctr.acks_sent;
        phy::LinkConfig ack_cfg = cfg_.downlink;
        ack_cfg.tx_power_dbm += cfg_.ack_power_boost_db;
        ack_cfg.rx_antenna = nodes_.antenna[n];
        const phy::LinkState ack_state = phy::draw_link_state(
            ack_cfg, r.look, wx, r.doppler_rate, rng);
        acked = error_model_.receive(ack_state, ack_cfg.lora,
                                     cfg_.ack_payload_bytes, rng);
      }
    }

    if (acked) {
      ++ctr.acks_received;
      pop_head(n, agg);
      return;
    }
    if (nodes_.head_attempts[n] > nodes_.max_retx[n]) {
      ++agg.packets_abandoned;
      pop_head(n, agg);
    }
  }

  void pop_head(std::size_t n, DtsAggregates& agg) {
    agg.attempts.add(nodes_.head_attempts[n]);
    nodes_.pop_front(n);
    nodes_.head_attempts[n] = 0;
    nodes_.head_stored[n] = 0;
    nodes_.head_first_tx_s[n] = -1.0;
    if (nodes_.empty(n)) deactivate(n);
  }

  [[nodiscard]] double background_loss_probability(std::size_t sat,
                                                   double t) {
    const auto& cg = cfg_.congestion;
    const auto block = static_cast<std::uint64_t>(t / cg.block_duration_s);
    auto& [cached_block, cached_loss] = background_cache_[sat];
    if (cached_block == block) return cached_loss;
    sim::Rng field(sim::derive_seed(
        cfg_.seed, "congestion-" + std::to_string(sat) + "-" +
                       std::to_string(block)));
    cached_block = block;
    if (field.chance(cg.congested_probability))
      cached_loss = cg.congested_loss;
    else
      cached_loss = std::min(field.exponential(cg.nominal_load_mean), 1.0);
    return cached_loss;
  }

  // --- ground-station flush -------------------------------------------

  void flush_satellite(std::uint32_t s, std::uint64_t gid, double t) {
    if (satellites_[s].buffer.size() == 0) return;
    DtsAggregates& agg = sat_agg_[s];
    // One deterministic stream per flush entry: the global entry id is
    // unique across satellites, so draw values are independent of shard
    // scheduling and of every other satellite's flush activity.
    sim::Rng rng(sim::derive_stream(flush_root_, gid));
    const std::vector<StoredPacket> drained =
        cfg_.downlink_packets_per_contact == 0
            ? satellites_[s].buffer.flush()
            : satellites_[s].buffer.flush_up_to(
                  cfg_.downlink_packets_per_contact);
    for (const StoredPacket& sp : drained) {
      if (rng.chance(cfg_.delivery_loss_probability)) continue;
      const double arrival = t + backhaul_.draw_delay_s(rng);
      // Every stored packet is drained exactly once (head_stored
      // guarantees a single store per packet), so this is its one
      // delivery opportunity — stream it straight into the aggregates.
      ++agg.reports_delivered;
      if (sp.packet.generated_at <= eligible_before_)
        ++agg.eligible_delivered;
      const double e2e = arrival - sp.packet.generated_at;
      agg.sum_end_to_end_s += e2e;
      agg.latency_s.add(e2e);
      if (sp.first_tx_at >= 0.0) {
        agg.sum_dts_transfer_s += sp.satellite_rx_at - sp.first_tx_at;
        agg.sum_delivery_s += arrival - sp.satellite_rx_at;
        ++agg.breakdown_samples;
      }
    }
  }

  // --- assembly -------------------------------------------------------

  [[nodiscard]] double location_rx_seconds(std::size_t loc) const {
    std::vector<ContactWindow> all;
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      for (const ContactWindow& w : node_windows_[s][loc])
        all.push_back(w);
    return orbit::daily_visible_seconds(all, cfg_.start_jd,
                                        cfg_.start_jd + cfg_.duration_days) *
           cfg_.duration_days;
  }

  DtsNetworkResult assemble_result() {
    DtsNetworkResult result;
    // Satellite partials, merged in satellite-index order — the fixed
    // merge order that keeps double sums identical for any thread count.
    for (std::size_t s = 0; s < satellites_.size(); ++s) {
      merge_counters(result.counters, sat_counters_[s]);
      result.agg.merge_from(sat_agg_[s]);
    }

    // End-of-run node accounting over fixed-size blocks: reports still
    // due before the run end (never observed by any slot), the attempt
    // histogram closeout for pending heads, and fleet energy residency.
    std::vector<double> rx_by_loc(locations_.size());
    for (std::size_t l = 0; l < locations_.size(); ++l)
      rx_by_loc[l] = location_rx_seconds(l);

    struct BlockAccum {
      std::uint64_t generated = 0, eligible = 0, drops = 0;
      stats::Histogram attempts{0.5, 32.5, 32};
      double tx = 0.0, rx = 0.0, sleep = 0.0;
    };
    const std::size_t blocks =
        (nodes_.count + kNodeBlock - 1) / kNodeBlock;
    std::vector<BlockAccum> partials(blocks);
    const auto run_block = [&](std::size_t b) {
      BlockAccum& acc = partials[b];
      const std::size_t lo = b * kNodeBlock;
      const std::size_t hi = std::min(lo + kNodeBlock, nodes_.count);
      for (std::size_t n = lo; n < hi; ++n) {
        for (double t = nodes_.next_report_s[n]; t < duration_s_;
             t += nodes_.interval_s[n]) {
          const std::uint64_t seq = nodes_.next_seq[n]++;
          ++acc.generated;
          if (gen_time_s(n, seq) <= eligible_before_) ++acc.eligible;
          if (!nodes_.push_seq(n, seq)) ++acc.drops;
        }
        if (nodes_.head_attempts[n] > 0)
          acc.attempts.add(nodes_.head_attempts[n]);
        const double tx_s = nodes_.tx_seconds[n];
        const double rx_s = rx_by_loc[nodes_.loc[n]];
        acc.tx += tx_s;
        acc.rx += std::max(rx_s - tx_s, 0.0);
        acc.sleep += std::max(duration_s_ - std::max(rx_s, tx_s), 0.0);
      }
    };
    if (pool_ != nullptr && blocks > 1)
      pool_->parallel_for(blocks, run_block);
    else
      for (std::size_t b = 0; b < blocks; ++b) run_block(b);
    for (const BlockAccum& acc : partials) {
      result.agg.reports_generated += acc.generated;
      result.agg.eligible_generated += acc.eligible;
      result.agg.local_buffer_drops += acc.drops;
      result.agg.attempts.merge(acc.attempts);
      result.agg.fleet_residency.record(energy::Mode::kTx, acc.tx);
      result.agg.fleet_residency.record(energy::Mode::kRx, acc.rx);
      result.agg.fleet_residency.record(energy::Mode::kSleep, acc.sleep);
    }
    publish_metrics(result);
    return result;
  }

  static void merge_counters(DtsCounters& into, const DtsCounters& from) {
    into.beacons_sent += from.beacons_sent;
    into.beacons_heard += from.beacons_heard;
    into.uplink_attempts += from.uplink_attempts;
    into.uplinks_received += from.uplinks_received;
    into.uplinks_collided += from.uplinks_collided;
    into.acks_sent += from.acks_sent;
    into.acks_received += from.acks_received;
    into.duplicate_uplinks += from.duplicate_uplinks;
    into.satellite_buffer_drops += from.satellite_buffer_drops;
    into.background_losses += from.background_losses;
  }

  [[nodiscard]] std::size_t timeline_bytes() const {
    std::size_t b = 0;
    for (std::size_t s = 0; s < timeline_time_.size(); ++s)
      b += timeline_time_[s].capacity() * sizeof(double) +
           timeline_is_flush_[s].capacity();
    return b;
  }

  void publish_metrics(const DtsNetworkResult& result) {
    if (cfg_.metrics == nullptr) return;
    obs::MetricsRegistry& m = *cfg_.metrics;
    const DtsCounters& c = result.counters;
    m.counter("net.dts.beacons_sent").add(c.beacons_sent);
    m.counter("net.dts.beacons_heard").add(c.beacons_heard);
    m.counter("net.dts.uplink_attempts").add(c.uplink_attempts);
    m.counter("net.dts.uplinks_received").add(c.uplinks_received);
    m.counter("net.dts.uplinks_collided").add(c.uplinks_collided);
    m.counter("net.dts.acks_sent").add(c.acks_sent);
    m.counter("net.dts.acks_received").add(c.acks_received);
    m.counter("net.dts.duplicate_uplinks").add(c.duplicate_uplinks);
    m.counter("net.dts.satellite_buffer_drops")
        .add(c.satellite_buffer_drops);
    m.counter("net.dts.background_losses").add(c.background_losses);
    m.counter("net.dts.reports_generated")
        .add(result.agg.reports_generated);
    m.gauge("net.dts.delivered_fraction").set(result.delivered_fraction());
    m.gauge("net.dts.mean_end_to_end_s").set(result.mean_end_to_end_s());

    m.gauge("net.dts.scale.nodes").set(static_cast<double>(nodes_.count));
    m.gauge("net.dts.scale.node_store_bytes")
        .set(static_cast<double>(nodes_.approx_bytes()));
    m.gauge("net.dts.scale.timeline_bytes")
        .set(static_cast<double>(timeline_bytes()));
    m.gauge("net.dts.scale.records_bytes").set(0.0);
    std::size_t peak = 0;
    for (const Satellite& s : satellites_)
      peak = std::max(peak, s.buffer.peak_occupancy());
    m.gauge("net.dts.scale.sat_buffer_peak_packets")
        .set(static_cast<double>(peak));
    m.gauge("net.dts.scale.peak_rss_bytes")
        .set(static_cast<double>(obs::process_peak_rss_bytes()));

    // Shard-schedule shape: how much concurrency the conflict schedule
    // actually exposed on this config.
    m.gauge("net.dts.parallel.threads").set(static_cast<double>(threads_));
    m.gauge("net.dts.parallel.slices")
        .set(static_cast<double>(slice_count_));
    m.gauge("net.dts.parallel.shards")
        .set(static_cast<double>(total_shards_));
    m.gauge("net.dts.parallel.max_shard_members")
        .set(static_cast<double>(max_shard_members_));
  }

  DtsNetworkConfig cfg_;
  phy::ErrorModel error_model_;
  BackhaulModel backhaul_;
  double duration_s_;
  double eligible_before_;
  std::uint64_t slot_root_;
  std::uint64_t flush_root_;

  unsigned threads_ = 1;
  sim::ThreadPool* pool_ = nullptr;
  std::unique_ptr<sim::ThreadPool> owned_pool_;

  std::vector<orbit::Tle> tles_;
  std::vector<Satellite> satellites_;
  NodeStore nodes_;
  std::vector<orbit::Geodetic> locations_;
  std::vector<std::vector<std::vector<ContactWindow>>> node_windows_;
  std::vector<std::vector<std::vector<ContactWindow>>> gs_windows_;
  std::vector<std::vector<std::uint32_t>> window_cursor_;
  std::vector<LocGeo> loc_geo_;
  std::vector<std::pair<std::uint64_t, double>> background_cache_;

  std::vector<std::vector<double>> timeline_time_;
  std::vector<std::vector<std::uint8_t>> timeline_is_flush_;
  /// Prefix sums of timeline sizes: entry_base_[s] + i is the globally
  /// unique id of entry i of satellite s.
  std::vector<std::uint64_t> entry_base_;

  // Conflict schedule.
  std::uint32_t slice_count_ = 0;
  std::vector<sim::SliceShards> schedule_;
  struct SatFootprint {
    std::uint32_t sat;
    std::vector<std::uint32_t> locs;
  };
  std::vector<std::vector<SatFootprint>> slice_footprints_;
  std::vector<std::vector<std::uint32_t>> slice_begin_;
  std::size_t total_shards_ = 0;
  std::size_t max_shard_members_ = 0;

  // Per-location state (owned by one shard per slice).
  std::vector<std::vector<std::uint32_t>> active_;
  std::vector<std::uint32_t> active_pos_;
  using LocHeap =
      std::priority_queue<std::pair<double, std::uint64_t>,
                          std::vector<std::pair<double, std::uint64_t>>,
                          std::greater<>>;
  std::vector<LocHeap> loc_heap_;

  // Shard-local accumulators, merged in satellite order after the run.
  std::vector<DtsCounters> sat_counters_;
  std::vector<DtsAggregates> sat_agg_;
};

}  // namespace

DtsNetworkResult run_dts_network_batched(const DtsNetworkConfig& cfg) {
  obs::PhaseProfiler phases(cfg.metrics, "net.dts");
  phases.phase("setup");
  if (detail::dts_node_count(cfg) <= cfg.trace_node_threshold) {
    BatchSimulator sim(cfg);
    phases.phase("simulate");
    DtsNetworkResult result = sim.run();
    phases.stop();
    return result;
  }
  ShardSimulator sim(cfg);
  phases.phase("simulate");
  DtsNetworkResult result = sim.run();
  phases.stop();
  return result;
}

}  // namespace sinet::net

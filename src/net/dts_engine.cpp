// The DtS engine behind run_dts_network().
//
// The run is executed as a deterministic parallel shard schedule:
//
//   * node state lives in struct-of-arrays storage (NodeStore): plain
//     parallel vectors of doubles/integers plus a compact run-list
//     packet buffer — no per-node std::deque, no per-node name string;
//   * reports are never scheduled: per-location min-heaps of
//     (next_report_time, node) materialize every due report lazily at
//     the first beacon slot that covers the location, and only nodes
//     holding a report are resolved per beacon;
//   * the run is cut into fixed kSliceSeconds time slices; inside each
//     slice, satellites whose footprints overlap a common ground
//     location (transitively) form one shard (sim::ConflictScheduler).
//     Every piece of mutable engine state belongs to one satellite or to
//     one location (or a node at it) — node SoA rows, active lists,
//     per-location report heaps, LocGeo rows, window cursors, satellite
//     buffers, background caches and per-satellite partials — so shards
//     of a slice share none of it, and the shards of the whole run form
//     a dependency graph: a shard waits only for the latest earlier
//     shard holding each of its satellites and each of its footprint
//     locations. sim::ThreadPool::run_graph starts each shard as soon as
//     those have finished, with no barrier between slices, and every
//     piece of state still sees its shards one at a time in slice order;
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
//     attempt-histogram closeout, energy residency) runs over fixed-size
//     node blocks merged in block order;
//   * fleets of at most kTraceNodeLimit nodes also keep one UplinkRecord
//     per report and a residency tracker per node. The trace is an
//     observation sink: it draws no random number and feeds back into no
//     engine state.
//
// Consequence: the DtsNetworkResult — aggregates, counters and, when
// kept, every trace record — is bit-identical for every sim_threads
// value (tests/test_dts_parallel.cpp asserts each field for threads in
// {1, 2, 4, hw}).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/dts_network.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/frames.h"
#include "orbit/time.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/thread_pool.h"

namespace sinet::net {

namespace detail {

double effective_tail_exclusion_s(const DtsNetworkConfig& cfg) {
  // A probe run shorter than twice the configured exclusion would
  // otherwise classify every report as ineligible (eligible_generated
  // stuck at 0 — the scale_ablation 100k bug): cap the exclusion at half
  // the run so short runs keep a nonzero eligible population.
  return std::min(cfg.aggregate_tail_exclusion_s,
                  0.5 * cfg.duration_days * 86400.0);
}

}  // namespace detail

namespace {

using orbit::ContactWindow;
using orbit::JulianDate;

/// Throws std::invalid_argument on a nonsensical configuration.
void validate_dts_config(const DtsNetworkConfig& cfg) {
  if (cfg.fleet.count == 0)
    throw std::invalid_argument("DtsNetwork: no IoT nodes configured");
  if (cfg.fleet.sites.empty())
    throw std::invalid_argument("DtsNetwork: fleet without sites");
  if (!std::isfinite(cfg.duration_days))
    throw std::invalid_argument("DtsNetwork: non-finite duration");
  if (cfg.duration_days <= 0.0)
    throw std::invalid_argument("DtsNetwork: nonpositive duration");
  // A NaN or infinite period would send no beacon at all.
  if (!std::isfinite(cfg.beacon.period_s))
    throw std::invalid_argument("DtsNetwork: non-finite beacon period");
  if (cfg.beacon.period_s <= 0.5)
    throw std::invalid_argument("DtsNetwork: beacon period too small");
  // The slot's uplink receptions are kept per factor, SF7..SF12.
  const int sf = static_cast<int>(cfg.uplink.lora.sf);
  if (sf < 7 || sf > 12)
    throw std::invalid_argument("DtsNetwork: uplink SF outside SF7..SF12");
  if (cfg.constellation.total_satellites() <= 0)
    throw std::invalid_argument("DtsNetwork: empty constellation");
  if (cfg.ground_stations.empty())
    throw std::invalid_argument("DtsNetwork: no ground stations");
  const double interval = cfg.fleet.prototype.report_interval_s;
  if (!(interval > 0.0))
    throw std::invalid_argument("DtsNetwork: bad report interval");
  // Every report loop runs `t += interval` up to the duration; below one
  // ulp of the duration that can stop moving t, and the loop never ends.
  const double duration_s = cfg.duration_days * 86400.0;
  if (interval <
      std::nextafter(duration_s, std::numeric_limits<double>::infinity()) -
          duration_s)
    throw std::invalid_argument(
        "DtsNetwork: report interval too small to advance the report clock");
  if (duration_s / interval > kMaxReportsPerNode) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "DtsNetwork: report interval %g s gives %.3g reports per "
                  "node, above the bound of %.0f",
                  interval, duration_s / interval, kMaxReportsPerNode);
    throw std::invalid_argument(msg);
  }
}

/// Key for grouping nodes that share a deployment location; locations
/// are numbered in first-appearance order.
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

/// Spreading factors ADR can pick (SF7..SF12), indexed from SF7.
constexpr std::size_t kSpreadingFactors = 6;

/// Footprint geometry of one location for one beacon slot, shared by
/// every node at the location: one SGP4 look per slot instead of one per
/// node, and the beacon, uplink and ACK link budgets and receptions
/// prepared once instead of once per node, so a node's beacon, uplink
/// and ACK each cost only a fade draw and a decode.
struct LocGeo {
  std::uint64_t stamp = 0;
  bool in_footprint = false;
  bool masked = false;
  orbit::LookAngles look;
  double doppler_rate = 0.0;
  channel::Weather weather = channel::Weather::kSunny;
  phy::PreparedReception beacon_rx;
  bool beacon_ready = false;  ///< `beacon` is this slot's
  bool uplink_ready = false;  ///< `uplink` is this slot's
  bool ack_ready = false;     ///< `ack`, `ack_rx` and its limit are
  /// Bit sf - 7 set: uplink_rx[sf - 7] is this slot's.
  std::uint8_t uplink_rx_ready = 0;
  phy::PreparedLink beacon;
  /// ErrorModel::certain_loss_below_db of `beacon` and `beacon_rx`.
  double beacon_loss_below_db = 0.0;
  phy::PreparedLink uplink;
  std::array<phy::PreparedReception, kSpreadingFactors> uplink_rx;
  phy::PreparedLink ack;
  phy::PreparedReception ack_rx;
  /// ErrorModel::certain_loss_below_db of `ack` and `ack_rx`.
  double ack_loss_below_db = 0.0;

  /// Bring the row to beacon slot `slot` of satellite `sat` at `jd`
  /// (no-op when it already holds that slot). The window cursor replaces
  /// a linear scan of the windows: slot times are non-decreasing per
  /// satellite, windows are chronological and disjoint, and a slot is in
  /// the footprint when aos <= jd <= los.
  void refresh(std::uint64_t slot, const DtsNetworkConfig& cfg,
               const phy::ErrorModel& error_model, const Satellite& sat,
               const orbit::Geodetic& site,
               const std::vector<ContactWindow>& windows,
               std::uint32_t& cursor, JulianDate jd, channel::Weather wx) {
    if (stamp == slot) return;
    stamp = slot;
    beacon_ready = uplink_ready = ack_ready = false;
    uplink_rx_ready = 0;
    weather = wx;
    while (cursor < windows.size() && jd > windows[cursor].los_jd) ++cursor;
    in_footprint = cursor < windows.size() && jd >= windows[cursor].aos_jd &&
                   jd <= windows[cursor].los_jd;
    if (!in_footprint) return;
    const orbit::ElevationSampler sampler(sat.propagator, site);
    look = sampler.look(jd);
    masked = look.elevation_deg < cfg.visibility_mask_deg;
    if (masked) return;
    // Doppler rate via one-second finite difference, for unmasked
    // geometry only.
    const orbit::LookAngles look1 =
        sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
    const double f0 =
        orbit::doppler_shift_hz(look.range_rate_km_s, cfg.downlink.carrier_hz);
    const double f1 = orbit::doppler_shift_hz(look1.range_rate_km_s,
                                              cfg.downlink.carrier_hz);
    doppler_rate = f1 - f0;
    // The beacon's Doppler profile, as the prepared beacon link below
    // carries it.
    beacon_rx = error_model.prepare(phy::DopplerProfile{f0, doppler_rate},
                                    cfg.downlink.lora,
                                    cfg.beacon.payload_bytes);
  }

  /// This slot's beacon link to the fleet's receive antenna, prepared on
  /// first use: a slot no node answers prepares nothing.
  const phy::PreparedLink& beacon_link(const DtsNetworkConfig& cfg,
                                       const phy::ErrorModel& error_model) {
    if (!beacon_ready) {
      phy::LinkConfig link = cfg.downlink;
      link.rx_antenna = cfg.fleet.prototype.antenna;
      beacon = phy::prepare_link(link, look, weather, doppler_rate);
      beacon_loss_below_db =
          error_model.certain_loss_below_db(beacon, beacon_rx);
      beacon_ready = true;
    }
    return beacon;
  }

  /// This slot's uplink link from the fleet's transmit antenna, prepared
  /// on first use. Its budget does not depend on the spreading factor.
  const phy::PreparedLink& uplink_link(const DtsNetworkConfig& cfg) {
    if (!uplink_ready) {
      phy::LinkConfig link = cfg.uplink;
      link.tx_antenna = cfg.fleet.prototype.antenna;
      uplink = phy::prepare_link(link, look, weather, doppler_rate);
      uplink_ready = true;
    }
    return uplink;
  }

  /// This slot's reception of a report sent at spreading factor `sf`,
  /// prepared on first use per factor: the uplink's Doppler at the
  /// satellite, scaled by the residual when the nodes precompensate.
  const phy::PreparedReception& uplink_reception(
      const DtsNetworkConfig& cfg, const phy::ErrorModel& error_model,
      phy::SpreadingFactor sf) {
    const auto i = static_cast<std::size_t>(static_cast<int>(sf) - 7);
    if (((uplink_rx_ready >> i) & 1u) == 0) {
      phy::DopplerProfile doppler = uplink_link(cfg).mean.doppler;
      if (cfg.doppler_precompensation) {
        doppler.shift_hz *= cfg.precompensation_residual;
        doppler.rate_hz_per_s *= cfg.precompensation_residual;
      }
      phy::LoraParams lora = cfg.uplink.lora;
      lora.sf = sf;
      uplink_rx[i] = error_model.prepare(
          doppler, lora, cfg.fleet.prototype.report_payload_bytes);
      uplink_rx_ready |= static_cast<std::uint8_t>(1u << i);
    }
    return uplink_rx[i];
  }

  /// This slot's ACK link to the fleet's receive antenna, at the boosted
  /// ACK power, prepared on first use with its reception and limit.
  const phy::PreparedLink& ack_link(const DtsNetworkConfig& cfg,
                                    const phy::ErrorModel& error_model) {
    if (!ack_ready) {
      phy::LinkConfig link = cfg.downlink;
      link.tx_power_dbm += cfg.ack_power_boost_db;
      link.rx_antenna = cfg.fleet.prototype.antenna;
      ack = phy::prepare_link(link, look, weather, doppler_rate);
      ack_rx = error_model.prepare(ack.mean.doppler, link.lora,
                                   cfg.ack_payload_bytes);
      ack_loss_below_db = error_model.certain_loss_below_db(ack, ack_rx);
      ack_ready = true;
    }
    return ack;
  }
};

/// A node answering a beacon: its uplink draw and prepared reception,
/// and its location, whose LocGeo row holds the slot's ACK link.
struct SlotResponder {
  std::size_t node;
  std::uint32_t loc;
  Transmission tx;
  phy::LinkState uplink_state;  ///< its Doppler is in uplink_rx
  phy::PreparedReception uplink_rx;
};

/// Satellite `s`'s timeline over [0, duration), sorted: its beacon ticks
/// (deduped across location windows) and its ground-station flush
/// opportunities (`is_flush` set), by time, beacons before flushes at
/// equal times, and flushes in (station, window) order at equal times.
void build_satellite_timeline(
    const DtsNetworkConfig& cfg, std::size_t s,
    const std::vector<std::vector<ContactWindow>>& node_windows,
    const std::vector<std::vector<ContactWindow>>& gs_windows,
    std::vector<double>& times, std::vector<std::uint8_t>& is_flush) {
  const double duration_s = cfg.duration_days * 86400.0;
  const double phase =
      cfg.beacon.period_s * static_cast<double>(s * 29 % 97) / 97.0;
  std::vector<double> ticks;
  for (const auto& windows : node_windows) {
    for (const ContactWindow& w : windows) {
      const double a = (w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double b = (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double first =
          phase +
          std::ceil((a - phase) / cfg.beacon.period_s) * cfg.beacon.period_s;
      for (double t = first; t <= b; t += cfg.beacon.period_s)
        if (t >= 0.0 && t < duration_s) ticks.push_back(t);
    }
  }
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
  std::vector<double> entries = std::move(ticks);
  std::vector<std::uint8_t> flags(entries.size(), 0);
  for (const auto& windows : gs_windows) {
    for (const ContactWindow& w : windows) {
      const double aos = (w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double los = (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      for (const double t : gs_flush_times(aos, los)) {
        if (t < 0.0 || t >= duration_s) continue;
        entries.push_back(t);
        flags.push_back(1);
      }
    }
  }
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (entries[a] != entries[b])
                       return entries[a] < entries[b];
                     return flags[a] < flags[b];
                   });
  times.resize(order.size());
  is_flush.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    times[i] = entries[order[i]];
    is_flush[i] = flags[order[i]];
  }
}

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

  // The fleet prototype's configuration, shared by every node.
  double interval_s = 0.0;
  int payload_bytes = 0;
  int max_retx = 0;
  std::uint32_t capacity = 0;

  // Static per-node configuration.
  std::vector<std::uint32_t> loc;  ///< index into locations_
  std::vector<double> phase_s;

  // Dynamic state.
  /// Next report time, accumulated (phase, then += interval): the one
  /// loop every report count in the engine runs.
  std::vector<double> next_report_s;
  std::vector<std::uint64_t> next_seq;
  std::vector<std::uint32_t> buf_size;
  std::vector<BufferRuns> runs;
  /// Extra (newer) runs for the rare node holding >2 disjoint runs.
  /// Shared across nodes, so it is guarded by overflow_mutex (see
  /// push_seq).
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      overflow;
  std::mutex overflow_mutex;
  std::vector<int> head_attempts;
  std::vector<std::uint8_t> head_stored;
  std::vector<double> head_first_tx_s;  ///< sim time; < 0 before any attempt
  std::vector<double> busy_until;
  std::vector<double> tx_seconds;

  void init(const NodeFleet& fleet,
            const std::vector<std::uint32_t>& node_loc) {
    const IotNodeConfig& proto = fleet.prototype;
    count = fleet.count;
    interval_s = proto.report_interval_s;
    payload_bytes = proto.report_payload_bytes;
    max_retx = proto.max_retransmissions;
    capacity = static_cast<std::uint32_t>(std::min<std::size_t>(
        proto.buffer_capacity, std::numeric_limits<std::uint32_t>::max()));
    loc = node_loc;
    phase_s.resize(count);
    // Small per-node phase so reports are not artificially synchronized,
    // wrapped so every node gets the same report count.
    for (std::size_t n = 0; n < count; ++n)
      phase_s[n] = std::fmod(60.0 * static_cast<double>(n), interval_s);
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
  /// Concurrency: shards call this from pool workers for DISJOINT node
  /// sets, so every per-node vector write is race-free.
  /// The one shared structure is the overflow map; by the run-ordering
  /// invariant (overflow[n] nonempty implies run1 is valid) it is only
  /// ever reachable behind the `r.e1 > r.b1` branch, so the map mutex is
  /// taken only on the rare >2-disjoint-runs path, never per push.
  bool push_seq(std::size_t n, std::uint64_t seq) {
    if (buf_size[n] >= capacity) return false;
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
    b += phase_s.capacity() * sizeof(double);
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

/// The DtS engine (see the file comment).
class ShardSimulator {
 public:
  explicit ShardSimulator(const DtsNetworkConfig& cfg)
      : cfg_(cfg),
        error_model_(cfg.error_model),
        backhaul_(cfg.delivery_backhaul),
        epoch_unix_s_(orbit::julian_to_unix(cfg.start_jd)),
        duration_s_(cfg.duration_days * 86400.0),
        eligible_before_(duration_s_ -
                         detail::effective_tail_exclusion_s(cfg)),
        slot_root_(sim::derive_seed(cfg.seed, "dts-slot")),
        flush_root_(sim::derive_seed(cfg.seed, "dts-flush")) {
    validate_dts_config(cfg);
    build_satellites();
    build_nodes();
    build_trace();
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
  /// more finely (more shards, a deeper but narrower graph) at the cost
  /// of a longer schedule; there is no barrier between slices. Set by
  /// measurement (docs/PERFORMANCE.md, "Parallel population scale"): on
  /// the 10k-node / 22-satellite day under the shard graph, 240 s
  /// slices leave 6.3x of available parallelism (shard work over the
  /// graph's longest chain), 120 s slices 7.3x with no faster 4-core
  /// wall time and more memory, and 480 s slices 3.2x with a 40% slower
  /// one. On 200 satellites every slice is one shard whatever its
  /// length (available parallelism 1.00).
  static constexpr double kSliceSeconds = 240.0;
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
    return nodes_.phase_s[n] + static_cast<double>(seq) * nodes_.interval_s;
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
    for (const orbit::Tle& tle : tles_)
      satellites_.emplace_back(tle.name, cfg_.constellation.name, tle,
                               cfg_.satellite_buffer_capacity);
  }

  void build_nodes() {
    const NodeFleet& fleet = cfg_.fleet;
    const std::size_t count = fleet.count;
    std::map<LocationKey, std::size_t> loc_index;
    for (const orbit::Geodetic& site : fleet.sites) {
      const LocationKey k = key_of(site);
      if (loc_index.emplace(k, locations_.size()).second)
        locations_.push_back(site);
    }
    std::vector<std::uint32_t> node_loc;
    node_loc.reserve(count);
    for (std::size_t n = 0; n < count; ++n)
      node_loc.push_back(static_cast<std::uint32_t>(
          loc_index.at(key_of(fleet.sites[n % fleet.sites.size()]))));
    nodes_.init(fleet, node_loc);
    active_.resize(locations_.size());
    active_pos_.assign(count, kNoActive);

    // Per-location report heaps: a location is held by one shard at a
    // time, in slice order, so its heap needs no lock.
    loc_heap_.resize(locations_.size());
    for (std::size_t n = 0; n < count; ++n)
      if (nodes_.next_report_s[n] < duration_s_)
        loc_heap_[nodes_.loc[n]].emplace(nodes_.next_report_s[n], n);
  }

  /// Sizes the trace sink of a fleet of at most kTraceNodeLimit nodes and
  /// fills each record's fixed fields. A node's record count comes from
  /// the same accumulated loop its report heap runs, so every report the
  /// run generates has exactly one record, and its generation time is
  /// the closed form the aggregates use for eligibility.
  void build_trace() {
    if (nodes_.count > kTraceNodeLimit) return;
    record_base_.assign(nodes_.count + 1, 0);
    for (std::size_t n = 0; n < nodes_.count; ++n) {
      std::size_t reports = 0;
      for (double t = nodes_.next_report_s[n]; t < duration_s_;
           t += nodes_.interval_s)
        ++reports;
      record_base_[n + 1] = record_base_[n] + reports;
    }
    records_.resize(record_base_.back());
    for (std::size_t n = 0; n < nodes_.count; ++n) {
      const std::string name =
          cfg_.fleet.prototype.name + "-" + std::to_string(n + 1);
      for (std::size_t i = record_base_[n]; i < record_base_[n + 1]; ++i) {
        trace::UplinkRecord& rec = records_[i];
        rec.sequence = i - record_base_[n];
        rec.node = name;
        rec.payload_bytes = nodes_.payload_bytes;
        rec.generated_unix_s = epoch_unix_s_ + gen_time_s(n, rec.sequence);
      }
    }
  }

  /// Trace record of report `seq` of node `n`; null for a fleet above
  /// kTraceNodeLimit.
  [[nodiscard]] trace::UplinkRecord* record(std::size_t n,
                                            std::uint64_t seq) {
    if (record_base_.empty()) return nullptr;
    return &records_[record_base_[n] + seq];
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

  /// One merged timeline per satellite, consumed as plain arrays by the
  /// shard schedule.
  void build_timelines() {
    timeline_time_.resize(satellites_.size());
    timeline_is_flush_.resize(satellites_.size());
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      build_satellite_timeline(cfg_, s, node_windows_[s], gs_windows_[s],
                               timeline_time_[s], timeline_is_flush_[s]);

    entry_base_.assign(satellites_.size() + 1, 0);
    for (std::size_t s = 0; s < satellites_.size(); ++s)
      entry_base_[s + 1] = entry_base_[s] + timeline_time_[s].size();
  }

  [[nodiscard]] std::uint32_t slice_of(double t) const {
    return static_cast<std::uint32_t>(t / kSliceSeconds);
  }

  void build_schedule() {
    slice_count_ = slice_of(std::nextafter(duration_s_, 0.0)) + 1;
    const std::size_t sats = satellites_.size();

    // Per-satellite slice boundaries into the (time-sorted) timeline.
    slice_begin_.assign(sats, {});
    for (std::size_t s = 0; s < sats; ++s) {
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

    // Footprints: every (satellite, location) contact window claims its
    // location for each slice the window overlaps. Claims are counted,
    // then filled into one list per (slice, satellite); filling
    // satellite by satellite and location by location leaves each list
    // sorted, and skipping slices an earlier window of the same pair
    // already claimed leaves it unique.
    const auto for_each_claim = [&](const auto& claim) {
      for (std::size_t s = 0; s < sats; ++s) {
        for (std::size_t l = 0; l < locations_.size(); ++l) {
          std::uint32_t unclaimed = 0;
          for (const ContactWindow& w : node_windows_[s][l]) {
            const double a = std::max(
                (w.aos_jd - cfg_.start_jd) * orbit::kSecondsPerDay, 0.0);
            const double b = std::min(
                (w.los_jd - cfg_.start_jd) * orbit::kSecondsPerDay,
                std::nextafter(duration_s_, 0.0));
            if (b < a) continue;
            const std::uint32_t k1 =
                std::min(slice_of(b), slice_count_ - 1);
            for (std::uint32_t k = std::max(slice_of(a), unclaimed); k <= k1;
                 ++k)
              claim(k * sats + s, static_cast<std::uint32_t>(l));
            unclaimed = std::max(unclaimed, k1 + 1);
          }
        }
      }
    };
    fp_begin_.assign(slice_count_ * sats + 1, 0);
    for_each_claim([&](std::size_t ks, std::uint32_t) { ++fp_begin_[ks + 1]; });
    std::partial_sum(fp_begin_.begin(), fp_begin_.end(), fp_begin_.begin());
    fp_locs_.resize(fp_begin_.back());
    std::vector<std::uint32_t> next(fp_begin_.begin(), fp_begin_.end() - 1);
    for_each_claim(
        [&](std::size_t ks, std::uint32_t l) { fp_locs_[next[ks]++] = l; });

    // Satellites touching a common location in a slice share a shard.
    // Every satellite with timeline entries in the slice takes part even
    // when no footprint touch links it (flush-only slices).
    sim::ConflictScheduler sched(static_cast<std::uint32_t>(sats));
    for (std::uint32_t k = 0; k < slice_count_; ++k) {
      for (std::uint32_t s = 0; s < sats; ++s) {
        for (const std::uint32_t l : footprint_locs(k, s))
          sched.touch(k, s, l);
        if (slice_begin_[s][k] < slice_begin_[s][k + 1]) sched.activate(k, s);
      }
    }
    schedule_ = sched.build();
  }

  /// Runs the shard graph (sim/shard.h) on the pool: a shard starts as
  /// soon as the latest earlier shard of each of its satellites and of
  /// each of its footprint locations has finished. Inline (one thread)
  /// the shards run in index order. With a metrics registry each shard
  /// is timed: the sum of shard times is the run's one-thread work, the
  /// longest chain of shard times through the graph its critical path,
  /// and their ratio the parallelism the schedule makes available.
  /// Without one no clock is read.
  void execute() {
    sat_counters_.assign(satellites_.size(), DtsCounters{});
    sat_agg_.assign(satellites_.size(), DtsAggregates{});
    const std::uint32_t shards = schedule_.total_shards();
    total_shards_ = shards;
    for (std::uint32_t k = 0; k < schedule_.slice_count(); ++k)
      max_slice_shards_ = std::max<std::size_t>(max_slice_shards_,
                                                schedule_.shard_count(k));
    for (std::uint32_t j = 0; j < shards; ++j)
      max_shard_members_ =
          std::max(max_shard_members_, schedule_.members_of(j).size());

    const bool timed = cfg_.metrics != nullptr;
    std::vector<double> shard_s(timed ? shards : 0, 0.0);
    const std::function<void(std::size_t)> run = [&](std::size_t j) {
      const auto g = static_cast<std::uint32_t>(j);
      if (!timed) {
        run_shard(schedule_.slice_of(g), schedule_.members_of(g));
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      run_shard(schedule_.slice_of(g), schedule_.members_of(g));
      shard_s[j] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    };
    if (pool_ != nullptr) {
      pool_->run_graph(sim::TaskGraph{schedule_.pred_count,
                                      schedule_.succ_begin, schedule_.succ},
                       run);
    } else {
      for (std::uint32_t j = 0; j < shards; ++j) run(j);
    }
    if (!timed) return;
    // Every edge points up, so index order visits each shard after all of
    // its predecessors.
    std::vector<double> ready_s(shards, 0.0);
    for (std::uint32_t j = 0; j < shards; ++j) {
      const double finish_s = ready_s[j] + shard_s[j];
      work_s_ += shard_s[j];
      critical_s_ = std::max(critical_s_, finish_s);
      for (const std::uint32_t next : schedule_.successors(j))
        ready_s[next] = std::max(ready_s[next], finish_s);
    }
  }

  /// Sorted footprint locations of satellite `s` in slice `k` (empty
  /// when it has none).
  [[nodiscard]] std::span<const std::uint32_t> footprint_locs(
      std::uint32_t k, std::uint32_t s) const {
    const std::size_t ks = std::size_t{k} * satellites_.size() + s;
    return {fp_locs_.data() + fp_begin_[ks],
            fp_locs_.data() + fp_begin_[ks + 1]};
  }

  /// K-way merge of the shard's member timelines over slice k, by
  /// (time, satellite index) — the same total order a serial elaboration
  /// of the whole slice would use.
  void run_shard(std::uint32_t k, std::span<const std::uint32_t> members) {
    struct Cursor {
      std::uint32_t s, i, end;
      std::span<const std::uint32_t> locs;
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
      nodes_.next_report_s[n] += nodes_.interval_s;
      if (nodes_.next_report_s[n] < duration_s_)
        heap.emplace(nodes_.next_report_s[n], n);
    }
  }

  // --- beacon slot ----------------------------------------------------

  /// One node's answer to the slot's beacon: its beacon draw and decode
  /// on the location's prepared beacon link, then (only for a node with a
  /// queued report and a free radio) its uplink draw on the location's
  /// prepared uplink link.
  void consider_node(std::size_t n, double now, std::uint32_t loc,
                     LocGeo& g, sim::Rng& rng, DtsCounters& ctr,
                     std::vector<SlotResponder>& responders) {
    ++ctr.beacon_decodes;
    const phy::PreparedLink& beacon = g.beacon_link(cfg_, error_model_);
    const channel::FadeUniforms beacon_u =
        channel::FadingModel::draw_uniforms(rng);
    const std::optional<phy::LinkState> beacon_state =
        phy::ErrorModel::draw_unless_lost(beacon, g.beacon_loss_below_db,
                                          beacon_u, rng);
    if (!beacon_state) {
      ++ctr.beacon_decodes_certified;
      return;
    }
    if (!error_model_.receive(beacon_state->snr_db, g.beacon_rx, rng)) return;
    ++ctr.beacons_heard;
    if (nodes_.empty(n)) return;
    if (now < nodes_.busy_until[n]) return;  // half-duplex: radio busy

    phy::SpreadingFactor sf = cfg_.uplink.lora.sf;
    if (cfg_.adaptive_sf) {
      // ADR: estimate the uplink SNR from the decoded beacon and pick the
      // fastest safe spreading factor. The beacon SNR includes the fade
      // that let it through, so a generous 6 dB safety margin keeps the
      // estimator honest about fading variance.
      sf = phy::choose_spreading_factor(
          beacon_state->snr_db + cfg_.adr_uplink_advantage_db, 6.0);
    }
    const phy::PreparedLink& uplink = g.uplink_link(cfg_);
    responders.push_back(SlotResponder{
        n, loc, Transmission{}, phy::draw_link_state(uplink, rng),
        g.uplink_reception(cfg_, error_model_, sf)});
  }

  void beacon_slot(std::uint32_t s, std::uint64_t gid, double t,
                   std::span<const std::uint32_t> locs) {
    DtsCounters& ctr = sat_counters_[s];
    DtsAggregates& agg = sat_agg_[s];
    ++ctr.beacons_sent;
    if (locs.empty()) return;  // no footprint this slice
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
    for (const std::uint32_t loc : locs) {
      materialize_loc(loc, t, agg);
      if (active_[loc].empty()) continue;
      // Stamped with the global entry id; a location is only ever
      // touched by the one shard holding it, so the row is race-free.
      LocGeo& g = loc_geo_[loc];
      g.refresh(gid + 1, cfg_, error_model_, satellites_[s], locations_[loc],
                node_windows_[s][loc], window_cursor_[s][loc], jd, wx);
      if (!g.in_footprint || g.masked) continue;
      // Snapshot: consider_node never mutates active lists.
      for (const std::uint32_t n : active_[loc])
        consider_node(n, t, loc, g, rng, ctr, responders);
    }
    if (responders.empty()) return;

    double max_toa = 0.0;
    for (const SlotResponder& r : responders)
      max_toa = std::max(max_toa, r.uplink_rx.time_on_air_s);
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
      r.tx = Transmission{static_cast<std::uint64_t>(r.node), t + offsets[i],
                          t + offsets[i] + r.uplink_rx.time_on_air_s,
                          r.uplink_state.rssi_dbm};
      nodes_.busy_until[r.node] = r.tx.end;
    }

    std::vector<Transmission> txs;
    txs.reserve(responders.size());
    for (const SlotResponder& r : responders) txs.push_back(r.tx);

    for (SlotResponder& r : responders)
      process_uplink(s, r, txs, rng, ctr, agg);
  }

  void process_uplink(std::uint32_t s, SlotResponder& r,
                      const std::vector<Transmission>& all_txs,
                      sim::Rng& rng, DtsCounters& ctr, DtsAggregates& agg) {
    const std::size_t n = r.node;
    if (nodes_.empty(n)) return;  // popped by an earlier event
    const std::uint64_t seq = nodes_.front(n);

    ++ctr.uplink_attempts;
    nodes_.tx_seconds[n] += r.tx.end - r.tx.start;
    ++nodes_.head_attempts[n];
    trace::UplinkRecord* rec = record(n, seq);
    if (nodes_.head_first_tx_s[n] < 0.0) {
      nodes_.head_first_tx_s[n] = r.tx.start;
      const double w = r.tx.start - gen_time_s(n, seq);
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
      if (rec) rec->first_tx_unix_s = epoch_unix_s_ + r.tx.start;
    }
    if (rec) {
      // Peak concurrency: every responder to this beacon transmits in it.
      ++rec->dts_attempts;
      rec->max_concurrent_tx = std::max(
          rec->max_concurrent_tx,
          static_cast<int>(std::min<std::size_t>(
              all_txs.size(),
              static_cast<std::size_t>(std::numeric_limits<int>::max()))));
    }

    bool survived = survives_collisions(r.tx, all_txs, cfg_.mac);
    if (!survived) ++ctr.uplinks_collided;

    if (survived) {
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
        survived &&
        error_model_.receive(r.uplink_state.snr_db, r.uplink_rx, rng);

    bool acked = false;
    if (decoded) {
      ++ctr.uplinks_received;
      const bool already_stored = nodes_.head_stored[n] != 0;
      bool stored = already_stored;
      if (!already_stored) {
        StoredPacket sp;
        sp.packet.sequence = seq;
        sp.packet.node_index = static_cast<std::int64_t>(n);
        sp.packet.payload_bytes = nodes_.payload_bytes;
        sp.packet.generated_at = gen_time_s(n, seq);
        sp.satellite_rx_at = r.tx.end;
        sp.satellite_index = static_cast<std::int64_t>(s);
        sp.first_tx_at = nodes_.head_first_tx_s[n];
        stored = satellites_[s].buffer.store(sp);
        if (stored) {
          nodes_.head_stored[n] = 1;
          if (rec) {
            rec->satellite_rx_unix_s = epoch_unix_s_ + r.tx.end;
            rec->via_satellite = satellites_[s].name;
          }
        } else {
          ++ctr.satellite_buffer_drops;
        }
      } else {
        ++ctr.duplicate_uplinks;
      }
      if (stored) {
        ++ctr.acks_sent;
        // The location's row still holds this slot: every location of
        // the slot is refreshed before the first uplink is resolved.
        LocGeo& g = loc_geo_[r.loc];
        const phy::PreparedLink& ack = g.ack_link(cfg_, error_model_);
        const channel::FadeUniforms ack_u =
            channel::FadingModel::draw_uniforms(rng);
        const std::optional<phy::LinkState> ack_state =
            phy::ErrorModel::draw_unless_lost(ack, g.ack_loss_below_db, ack_u,
                                              rng);
        if (!ack_state) ++ctr.ack_decodes_certified;
        acked = ack_state &&
                error_model_.receive(ack_state->snr_db, g.ack_rx, rng);
      }
    }

    if (acked) {
      ++ctr.acks_received;
      pop_head(n, agg);
      return;
    }
    if (nodes_.head_attempts[n] > nodes_.max_retx) {
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
    else if (cg.nominal_load_mean == 0.0)
      cached_loss = 0.0;  // an unloaded footprint
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
    for (const StoredPacket& sp : satellites_[s].buffer.flush()) {
      if (rng.chance(cfg_.delivery_loss_probability)) continue;
      const double arrival = t + backhaul_.draw_delay_s(rng);
      // A stored packet is drained at most once (head_stored guarantees
      // a single store per packet), so this is its one delivery
      // opportunity — stream it straight into the aggregates.
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
      if (trace::UplinkRecord* rec =
              record(static_cast<std::size_t>(sp.packet.node_index),
                     sp.packet.sequence)) {
        rec->server_rx_unix_s = epoch_unix_s_ + arrival;
        rec->delivered = true;
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
    // histogram closeout for pending heads, and energy residency (per
    // node too when traced).
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
    if (!record_base_.empty()) result.node_residency.resize(nodes_.count);
    const auto run_block = [&](std::size_t b) {
      BlockAccum& acc = partials[b];
      const std::size_t lo = b * kNodeBlock;
      const std::size_t hi = std::min(lo + kNodeBlock, nodes_.count);
      for (std::size_t n = lo; n < hi; ++n) {
        for (double t = nodes_.next_report_s[n]; t < duration_s_;
             t += nodes_.interval_s) {
          const std::uint64_t seq = nodes_.next_seq[n]++;
          ++acc.generated;
          if (gen_time_s(n, seq) <= eligible_before_) ++acc.eligible;
          if (!nodes_.push_seq(n, seq)) ++acc.drops;
        }
        if (nodes_.head_attempts[n] > 0)
          acc.attempts.add(nodes_.head_attempts[n]);
        // The node holds MCU+Rx through the *theoretical* visibility of
        // the constellation (it tracks TLEs but cannot know the effective
        // windows in advance), transmits for its accumulated airtime, and
        // sleeps the rest.
        const double tx_s = nodes_.tx_seconds[n];
        const double rx_s = rx_by_loc[nodes_.loc[n]];
        const double rx_only_s = std::max(rx_s - tx_s, 0.0);
        const double sleep_s =
            std::max(duration_s_ - std::max(rx_s, tx_s), 0.0);
        acc.tx += tx_s;
        acc.rx += rx_only_s;
        acc.sleep += sleep_s;
        if (!result.node_residency.empty()) {
          energy::ResidencyTracker& node = result.node_residency[n];
          node.record(energy::Mode::kTx, tx_s);
          node.record(energy::Mode::kRx, rx_only_s);
          node.record(energy::Mode::kSleep, sleep_s);
        }
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
    result.uplinks = std::move(records_);
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
    into.beacon_decodes += from.beacon_decodes;
    into.beacon_decodes_certified += from.beacon_decodes_certified;
    into.ack_decodes_certified += from.ack_decodes_certified;
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
    m.counter("net.dts.beacon_decodes").add(c.beacon_decodes);
    m.counter("net.dts.beacon_decodes_certified")
        .add(c.beacon_decodes_certified);
    m.counter("net.dts.ack_decodes_certified").add(c.ack_decodes_certified);
    m.counter("net.dts.reports_generated")
        .add(result.agg.reports_generated);
    m.gauge("net.dts.delivered_fraction").set(result.delivered_fraction());
    m.gauge("net.dts.mean_end_to_end_s").set(result.mean_end_to_end_s());

    m.gauge("net.dts.scale.nodes").set(static_cast<double>(nodes_.count));
    m.gauge("net.dts.scale.node_store_bytes")
        .set(static_cast<double>(nodes_.approx_bytes()));
    m.gauge("net.dts.scale.timeline_bytes")
        .set(static_cast<double>(timeline_bytes()));
    m.gauge("net.dts.scale.records_bytes")
        .set(static_cast<double>(result.uplinks.capacity() *
                                 sizeof(trace::UplinkRecord)));
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
    m.gauge("net.dts.parallel.edges")
        .set(static_cast<double>(schedule_.succ.size()));
    m.gauge("net.dts.parallel.max_shard_members")
        .set(static_cast<double>(max_shard_members_));
    m.gauge("net.dts.parallel.max_slice_shards")
        .set(static_cast<double>(max_slice_shards_));
    m.gauge("net.dts.parallel.work_s").set(work_s_);
    m.gauge("net.dts.parallel.critical_s").set(critical_s_);
    m.gauge("net.dts.parallel.available")
        .set(critical_s_ > 0.0 ? work_s_ / critical_s_ : 0.0);
  }

  DtsNetworkConfig cfg_;
  phy::ErrorModel error_model_;
  BackhaulModel backhaul_;
  double epoch_unix_s_;  ///< Unix time of sim time 0
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
  sim::ShardSchedule schedule_;
  /// Footprints, flat: satellite s's locations (ascending) in slice k
  /// are fp_locs_[fp_begin_[k * sats + s] .. fp_begin_[k * sats + s + 1]).
  std::vector<std::uint32_t> fp_begin_;
  std::vector<std::uint32_t> fp_locs_;
  std::vector<std::vector<std::uint32_t>> slice_begin_;
  std::size_t total_shards_ = 0;
  std::size_t max_slice_shards_ = 0;
  std::size_t max_shard_members_ = 0;
  double work_s_ = 0.0;      ///< sum of shard times (metrics only)
  double critical_s_ = 0.0;  ///< longest chain of shard times (metrics only)

  // Per-location state (held by one shard at a time, in slice order).
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

  /// Trace sink (fleets of at most kTraceNodeLimit nodes; both empty
  /// above): node n's records are records_[record_base_[n] ..
  /// record_base_[n + 1]), by sequence. Sized once before the run and
  /// never reallocated during it, so shards write records concurrently
  /// without a lock: process_uplink runs in the shard owning the node's
  /// location and writes attempts, peak concurrency, first-tx time,
  /// satellite-rx time and via_satellite; flush_satellite runs in the
  /// shard owning the satellite and writes server_rx_unix_s and
  /// delivered. A flush may fill the record of a node whose location
  /// another shard holds meanwhile, of the same slice or a later one (a
  /// duplicate uplink of a stored packet updating its attempts), which
  /// is race-free only because the two writers touch disjoint fields.
  std::vector<std::size_t> record_base_;
  std::vector<trace::UplinkRecord> records_;
};

}  // namespace

DtsNetworkResult run_dts_network(const DtsNetworkConfig& cfg) {
  // Wrap the shared pool so its task counters land in this run's
  // registry (the scope detaches on exit: the pool outlives cfg.metrics).
  sim::ThreadPool::MetricsScope pool_scope(sim::ThreadPool::shared(),
                                           cfg.metrics);
  obs::PhaseProfiler phases(cfg.metrics, "net.dts");
  phases.phase("setup");
  ShardSimulator sim(cfg);
  phases.phase("simulate");
  DtsNetworkResult result = sim.run();
  phases.stop();
  return result;
}

}  // namespace sinet::net

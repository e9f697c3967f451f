// End-to-end Direct-to-Satellite network simulator.
//
// Models the full Tianqi-style pipeline the paper measures actively
// (Sec 2.3 / 3.2):
//
//   sensor report -> node buffer -> [wait for satellite pass]
//     -> beacon decode -> DtS uplink (slotted ALOHA + capture, ARQ w/ ACK)
//     -> satellite store-and-forward buffer -> [wait for GS contact]
//     -> ground-station downlink -> operator backhaul -> subscriber server
//
// One engine runs it (net/dts_engine.cpp): a deterministic schedule of
// time slices and footprint-conflict shards on sinet::sim, reproducible
// from (config, seed) and identical at any thread count. It produces
// streaming aggregates and link/MAC counters for fleets of any size, and
// for fleets of at most kTraceNodeLimit nodes also per-packet
// UplinkRecords (Figs 5a-5d, 12a, 12b) and per-node energy residency
// (Fig 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/weather.h"
#include "energy/power_model.h"
#include "net/backhaul.h"
#include "net/beacon.h"
#include "net/ground_station.h"
#include "net/iot_node.h"
#include "net/mac.h"
#include "net/satellite.h"
#include "orbit/constellation.h"
#include "orbit/passes.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "stats/histogram.h"
#include "trace/packet_trace.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::net {

/// Fleets of at most this many nodes keep a per-packet trace
/// (DtsNetworkResult::uplinks) and per-node residency; larger fleets
/// keep only DtsAggregates, so memory stays O(nodes + pending), not
/// O(reports).
inline constexpr std::size_t kTraceNodeLimit = 4096;

/// A run refuses a report interval that gives a node more reports than
/// this (duration / interval): one a minute for 69 days, against 1,440
/// over the paper's 30-day campaign. Every report is a trace record (up
/// to kTraceNodeLimit nodes) and a step of its node's report loop.
inline constexpr double kMaxReportsPerNode = 100'000.0;

/// The node population: `count` nodes cloned from `prototype`, deployed
/// round-robin across `sites` (node i lives at sites[i % sites.size()]
/// and is named "<prototype.name>-<i + 1>" where a name is needed). No
/// IotNodeConfig — with its heap-allocated name — is materialized per
/// node, so count can run into the millions; the engine reads the
/// prototype once.
struct NodeFleet {
  std::size_t count = 0;
  std::vector<orbit::Geodetic> sites;
  IotNodeConfig prototype;
};

struct DtsNetworkConfig {
  orbit::JulianDate start_jd = 0.0;  ///< simulation epoch (UTC)
  double duration_days = 30.0;

  /// Constellation to fly; TLEs are generated from the paper catalog.
  orbit::ConstellationSpec constellation;

  BeaconConfig beacon;
  MacConfig mac;
  /// Satellite -> ground beacon/ACK radio (satellite tx power & antenna).
  phy::LinkConfig downlink;
  /// Ground -> satellite data uplink (node tx power; rx antenna = dipole).
  phy::LinkConfig uplink;
  phy::ErrorModelConfig error_model;
  int ack_payload_bytes = 12;
  /// ACKs are short bursts the satellite can afford to send above its
  /// beacon power; even so, a large share is lost, which the paper
  /// identifies as the cause of unnecessary retransmissions (Fig 5b).
  double ack_power_boost_db = 6.0;

  /// Background traffic from the thousands of other devices inside a
  /// satellite's 10^7 km^2 footprint (paper Sec 3.1: bursty concurrent
  /// communications cause collisions / congestion / resource exhaustion).
  /// The footprint load is drawn per (satellite, time block) so that a
  /// congested pass stays congested — which is what defeats ARQ and
  /// produces the paper's residual 4% loss even with 5 retransmissions.
  struct Congestion {
    double block_duration_s = 600.0;      ///< load coherence time
    double congested_probability = 0.02;  ///< share of congested blocks
    double congested_loss = 0.9;   ///< per-attempt loss when congested
    /// Mean per-attempt background loss; 0 = an unloaded footprint.
    double nominal_load_mean = 0.02;
  };
  Congestion congestion;

  /// Operator-side loss after a successful DtS uplink (downlink
  /// corruption, data-center drops). The node already holds an ACK, so
  /// ARQ cannot recover these — they are the residual loss that keeps
  /// the paper's with-ARQ reliability at 96% rather than ~100% (Fig 5a).
  double delivery_loss_probability = 0.03;

  // --- DtS optimizations the paper's conclusion calls for -------------
  /// Uplink medium access: baseline slotted ALOHA, or CosMAC-style
  /// scheduled subslots (removes intra-footprint collisions).
  UplinkAccess uplink_access = UplinkAccess::kSlottedAloha;
  /// When scheduled, footprint-wide coordination also suppresses the
  /// background collision load to this fraction of its ALOHA value.
  double scheduled_background_factor = 0.15;
  /// TLE-based Doppler pre-compensation at the node (Spectrumize-style):
  /// the node pre-shifts its carrier, leaving only ephemeris error.
  bool doppler_precompensation = false;
  double precompensation_residual = 0.05;
  /// Adaptive data rate: pick the uplink SF from the decoded beacon's
  /// SNR instead of the fixed SF10 profile.
  bool adaptive_sf = false;
  /// Assumed uplink-over-downlink SNR advantage used by the ADR
  /// estimator (node Tx power + gateway receiver, dB).
  double adr_uplink_advantage_db = 9.0;

  NodeFleet fleet;
  std::vector<GroundStationSite> ground_stations;
  BackhaulConfig delivery_backhaul;
  std::size_t satellite_buffer_capacity = 4096;

  /// Tail exclusion (s) for the aggregate eligible-delivery ratio:
  /// reports generated within this long of the run end are not counted
  /// as eligible (mirrors core::summarize_reliability's default). The
  /// effective exclusion is clamped to half the run duration so a short
  /// probe run (duration < 2x this default) still reports a nonzero
  /// eligible population instead of excluding every report.
  double aggregate_tail_exclusion_s = 6.0 * 3600.0;

  /// Weather per simulated day at the node site; shorter vectors repeat
  /// cyclically, empty = always sunny.
  std::vector<channel::Weather> daily_weather;

  /// Elevation mask for "theoretical" visibility used for scheduling.
  double visibility_mask_deg = 0.0;
  /// Coarse pass-scan step (s). 60 s is safe for LEO (> 6-min passes).
  double pass_scan_step_s = 60.0;
  /// Pass-prediction fan-out (orbit::predict_passes_grid_cached): 0 = all
  /// hardware threads, 1 = serial on the calling thread. Windows are
  /// identical for any value.
  unsigned pass_threads = 0;
  /// Worker threads for the shard schedule itself: 0 = all hardware
  /// threads, 1 = run the shard schedule inline on the calling thread.
  /// Results are thread-count-invariant BY CONSTRUCTION — every trace
  /// record, aggregate counter, histogram bin and residency mode is
  /// bit-identical for any value (enforced by
  /// tests/test_dts_parallel.cpp); the knob only changes wall-clock time.
  unsigned sim_threads = 0;

  std::uint64_t seed = 42;

  /// Optional run-metrics sink. When non-null the run records thread-pool
  /// ("sim.thread_pool.*"), pass-cache ("orbit.pass_cache.*"), network
  /// ("net.dts.*") and shard-schedule ("net.dts.parallel.*") metrics into
  /// it; null (the default) disables all instrumentation. The registry
  /// must outlive run_dts_network().
  obs::MetricsRegistry* metrics = nullptr;
};

/// A sensible default configuration matching the paper's active setup:
/// Tianqi constellation, three nodes (TQ-node-1..3) at a Yunnan coffee
/// plantation, 20-byte reports every 30 minutes, the 12 operator ground
/// stations.
[[nodiscard]] DtsNetworkConfig tianqi_agriculture_config(
    orbit::JulianDate start_jd, double duration_days = 30.0);

struct DtsCounters {
  std::uint64_t beacons_sent = 0;
  /// Beacon decodes by nodes holding a report: the engine never draws a
  /// beacon for a node with nothing to send.
  std::uint64_t beacons_heard = 0;
  std::uint64_t uplink_attempts = 0;
  std::uint64_t uplinks_received = 0;
  std::uint64_t uplinks_collided = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicate_uplinks = 0;  ///< retx after lost ACK
  std::uint64_t satellite_buffer_drops = 0;
  std::uint64_t background_losses = 0;  ///< footprint congestion losses
  /// Beacon decodes drawn: one per node answering a slot's beacon.
  std::uint64_t beacon_decodes = 0;
  /// Beacon decodes, and ACK decodes (of acks_sent), that the fade bound
  /// settled as lost without the fade's quantiles
  /// (ErrorModel::draw_unless_lost).
  std::uint64_t beacon_decodes_certified = 0;
  std::uint64_t ack_decodes_certified = 0;
};

/// Streaming aggregates of a DtS run, over the same packets the trace
/// holds. Always populated; above kTraceNodeLimit nodes they are the ONLY
/// per-packet output (the engine folds each delivery into these
/// histograms at flush time), which is what keeps a 1M-node / 24 h run's
/// memory bounded. The transfer/delivery decomposition is over delivered
/// packets with complete timing; the wait sum and histogram are over
/// every packet that reached a first transmission.
struct DtsAggregates {
  std::uint64_t reports_generated = 0;
  std::uint64_t reports_delivered = 0;
  /// Reports generated at least `aggregate_tail_exclusion_s` before the
  /// run end (they had a fair chance to deliver), and the delivered
  /// subset thereof — the scale PDR scored against the analytic model.
  std::uint64_t eligible_generated = 0;
  std::uint64_t eligible_delivered = 0;
  std::uint64_t local_buffer_drops = 0;
  std::uint64_t packets_abandoned = 0;  ///< ARQ budget exhausted

  double sum_end_to_end_s = 0.0;  ///< over delivered packets
  double sum_wait_s = 0.0;        ///< over first-transmitted packets
  std::uint64_t wait_samples = 0;
  double sum_dts_transfer_s = 0.0;  ///< over delivered w/ full timing
  double sum_delivery_s = 0.0;
  std::uint64_t breakdown_samples = 0;

  stats::Histogram latency_s{0.0, 6.0 * 3600.0, 144};
  stats::Histogram wait_s{0.0, 6.0 * 3600.0, 144};
  stats::Histogram attempts{0.5, 32.5, 32};  ///< per transmitted packet

  /// Fleet-summed energy residency (per-node trackers are only kept up
  /// to kTraceNodeLimit nodes).
  energy::ResidencyTracker fleet_residency;

  [[nodiscard]] double delivered_fraction() const;
  [[nodiscard]] double eligible_delivered_fraction() const;
  [[nodiscard]] double mean_end_to_end_s() const;
  [[nodiscard]] double mean_wait_s() const;

  /// Fold a shard-local partial into this aggregate: counter addition,
  /// double-sum addition, stats::Histogram::merge on each histogram and
  /// per-mode residency addition. The parallel engine calls this in
  /// satellite order once every shard has finished, which is what keeps
  /// the merged double sums bit-identical across thread counts.
  void merge_from(const DtsAggregates& other);
};

struct DtsNetworkResult {
  /// One record per generated report, node-major and by sequence within
  /// a node; empty above kTraceNodeLimit nodes.
  std::vector<trace::UplinkRecord> uplinks;
  /// One tracker per node; empty above kTraceNodeLimit nodes.
  std::vector<energy::ResidencyTracker> node_residency;
  DtsCounters counters;
  /// Streaming aggregates; above kTraceNodeLimit nodes this is the only
  /// per-packet output.
  DtsAggregates agg;

  /// Both read `agg`.
  [[nodiscard]] double delivered_fraction() const;
  [[nodiscard]] double mean_end_to_end_s() const;
};

/// Ground-station drain opportunities inside one contact window, as sim
/// times. Nominally two flushes per contact — 20 s after AOS (link
/// acquisition) and 5 s before LOS — both clamped into [aos_s, los_s].
/// Windows shorter than 25 s get a single flush at the window midpoint;
/// an empty/inverted window (los_s < aos_s) yields no flushes.
[[nodiscard]] std::vector<double> gs_flush_times(double aos_s, double los_s);

/// Population-scale configuration: `node_count` nodes with the Tianqi
/// agriculture link budget spread round-robin over `site_count` sites on
/// an equal-area spiral between +-55 deg latitude, flying a synthetic
/// `satellite_count`-satellite constellation (Tianqi-like 550 km / 53 deg
/// shell). Uses scheduled (CosMAC-style) uplink access so the footprint
/// MAC stays stable at mega-fleet load, and sizes the satellite buffers
/// for the per-satellite arrival rate. Deterministic for a fixed seed.
[[nodiscard]] DtsNetworkConfig scale_fleet_config(
    std::size_t node_count, std::size_t satellite_count,
    std::size_t site_count, orbit::JulianDate start_jd,
    double duration_days = 1.0);

/// Run the full simulation. Throws std::invalid_argument on nonsensical
/// configuration (no nodes, nonpositive duration, ...).
[[nodiscard]] DtsNetworkResult run_dts_network(const DtsNetworkConfig& cfg);

namespace detail {

/// Tail exclusion actually applied to eligible-packet accounting:
/// cfg.aggregate_tail_exclusion_s clamped to half the run duration, so a
/// short probe run still reports a nonzero eligible population.
[[nodiscard]] double effective_tail_exclusion_s(const DtsNetworkConfig& cfg);

}  // namespace detail

}  // namespace sinet::net

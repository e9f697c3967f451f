// Full-precision dump of the DtS and campaign outputs, so that two builds
// can be compared byte for byte (tools/parity_check.sh). Every double is
// printed with %a; the CLI's rounded tables would hide a last-bit change.
//
//   parity_dump dts <nodes> <days> <seed> <threads>
//   parity_dump dts-adr <nodes> <days> <seed> <threads>
//   parity_dump campaign <days> <seed> <threads>
//
// `dts` runs net::scale_fleet_config(nodes, 22 satellites, 16 sites) from
// the campaign epoch, the fleet of the dts-trace-2k and dts-fleet-10k
// benchmark workloads, and prints every aggregate and histogram bin, the
// outcome counters, and every UplinkRecord and node residency (kept up to
// net::kTraceNodeLimit nodes). The counters of how the engine reached its
// outcomes (beacon_decodes and the certified decodes) are left out: they
// may change while every outcome stays. `dts-adr` prints the same for
// that fleet on slotted ALOHA with adaptive spreading factors, Doppler
// precompensation and the 5/8-wave antenna, the branches the default
// fleet (scheduled, fixed SF10, uncompensated, quarter-wave) never
// takes. `campaign` runs
// core::default_campaign(days) and prints every theoretical window, the
// per-site window counts and every beacon record.
//
// Exits 2 on a malformed argument. Only the library's public API is used,
// so the same source builds against any revision.
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "channel/antenna.h"
#include "core/passive_campaign.h"
#include "core/scenario.h"
#include "energy/power_model.h"
#include "net/dts_network.h"
#include "stats/histogram.h"
#include "trace/packet_trace.h"

using namespace sinet;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parity_dump dts <nodes> <days> <seed> <threads>\n"
               "       parity_dump dts-adr <nodes> <days> <seed> <threads>\n"
               "       parity_dump campaign <days> <seed> <threads>\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_days(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v <= 366.0)) return false;
  out = v;
  return true;
}

void print_histogram(const char* name, const stats::Histogram& h) {
  std::printf("%s.bins %zu\n", name, h.bin_count());
  for (std::size_t i = 0; i < h.bin_count(); ++i)
    std::printf("%s.bin %zu %a\n", name, i, h.count(i));
  std::printf("%s.rest %a %a %a %a\n", name, h.underflow(), h.overflow(),
              h.nan(), h.total());
}

void print_residency(const char* name, std::size_t index,
                     const energy::ResidencyTracker& r) {
  std::printf("%s %zu", name, index);
  for (int m = 0; m < energy::kModeCount; ++m)
    std::printf(" %a", r.seconds_in(static_cast<energy::Mode>(m)));
  std::printf("\n");
}

void dump_dts(std::size_t nodes, double days, std::uint64_t seed,
              unsigned threads, bool adr) {
  net::DtsNetworkConfig cfg = net::scale_fleet_config(
      nodes, 22, 16, core::campaign_epoch_jd(), days);
  cfg.seed = seed;
  cfg.sim_threads = threads;
  if (adr) {
    cfg.uplink_access = net::UplinkAccess::kSlottedAloha;
    cfg.adaptive_sf = true;
    cfg.doppler_precompensation = true;
    cfg.fleet.prototype.antenna =
        channel::AntennaType::kFiveEighthsWaveMonopole;
  }
  const net::DtsNetworkResult r = net::run_dts_network(cfg);

  const net::DtsCounters& c = r.counters;
  std::printf("counters %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 "\n",
              c.beacons_sent, c.beacons_heard, c.uplink_attempts,
              c.uplinks_received, c.uplinks_collided, c.acks_sent,
              c.acks_received, c.duplicate_uplinks, c.satellite_buffer_drops,
              c.background_losses);

  const net::DtsAggregates& a = r.agg;
  std::printf("agg.counts %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
              a.reports_generated, a.reports_delivered, a.eligible_generated,
              a.eligible_delivered, a.local_buffer_drops, a.packets_abandoned,
              a.wait_samples, a.breakdown_samples);
  std::printf("agg.sums %a %a %a %a\n", a.sum_end_to_end_s, a.sum_wait_s,
              a.sum_dts_transfer_s, a.sum_delivery_s);
  print_histogram("agg.latency_s", a.latency_s);
  print_histogram("agg.wait_s", a.wait_s);
  print_histogram("agg.attempts", a.attempts);
  print_residency("agg.fleet_residency", 0, a.fleet_residency);

  for (std::size_t i = 0; i < r.uplinks.size(); ++i) {
    const trace::UplinkRecord& u = r.uplinks[i];
    std::printf("uplink %zu %" PRIu64 " %s %d %a %a %a %a %d %d %d %s\n", i,
                u.sequence, u.node.c_str(), u.payload_bytes,
                u.generated_unix_s, u.first_tx_unix_s, u.satellite_rx_unix_s,
                u.server_rx_unix_s, u.dts_attempts, u.max_concurrent_tx,
                u.delivered ? 1 : 0, u.via_satellite.c_str());
  }
  for (std::size_t n = 0; n < r.node_residency.size(); ++n)
    print_residency("residency", n, r.node_residency[n]);
}

void dump_campaign(double days, std::uint64_t seed, unsigned threads) {
  core::PassiveCampaignConfig cfg = core::default_campaign(days);
  cfg.seed = seed;
  cfg.threads = threads;
  const core::PassiveCampaignResult r = core::run_passive_campaign(cfg);

  std::printf("beacons %" PRIu64 " %" PRIu64 "\n", r.beacons_transmitted,
              r.beacons_received);
  for (const auto& [site, counts] : r.windows_requested_observed)
    std::printf("windows %s %zu %zu\n", site.c_str(), counts.first,
                counts.second);
  for (const auto& [cell, satellites] : r.theoretical)
    for (const core::SatelliteWindows& sw : satellites)
      for (const orbit::ContactWindow& w : sw.windows)
        std::printf("window %s %s %s %a %a %a %a\n", cell.first.c_str(),
                    cell.second.c_str(), sw.satellite.c_str(), w.aos_jd,
                    w.tca_jd, w.los_jd, w.max_elevation_deg);
  const auto& records = r.traces.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::BeaconRecord& b = records[i];
    std::printf("beacon %zu %a %s %s %s %a %a %a %a %a %a %a %s\n", i,
                b.time_unix_s, b.station.c_str(), b.constellation.c_str(),
                b.satellite.c_str(), b.rssi_dbm, b.snr_db, b.elevation_deg,
                b.azimuth_deg, b.range_km, b.doppler_hz, b.sat_altitude_km,
                b.weather.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const bool adr = std::strcmp(argv[1], "dts-adr") == 0;
  const bool dts = adr || std::strcmp(argv[1], "dts") == 0;
  if (!dts && std::strcmp(argv[1], "campaign") != 0) return usage();
  if (argc != (dts ? 6 : 5)) return usage();
  std::uint64_t nodes = 0, seed = 0, threads = 0;
  double days = 0.0;
  int arg = 2;
  if (dts && (!parse_u64(argv[arg++], nodes) || nodes == 0)) return usage();
  if (!parse_days(argv[arg++], days) || !parse_u64(argv[arg++], seed) ||
      !parse_u64(argv[arg++], threads) || threads > 1024)
    return usage();
  try {
    if (dts)
      dump_dts(static_cast<std::size_t>(nodes), days, seed,
               static_cast<unsigned>(threads), adr);
    else
      dump_campaign(days, seed, static_cast<unsigned>(threads));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

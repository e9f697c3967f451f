// Ablation — satellite IoT at scale: what happens when a footprint holds
// more and more transmitting nodes (paper Sec 3.1: "bursty concurrent
// communications from numerous devices can be expected when a satellite
// flies over ... high packet losses may occur due to collisions").
//
// Nodes are co-located at the farm so the orbital geometry stays fixed
// and only the MAC contention scales; the scheduled-MAC column shows how
// CosMAC-style coordination changes the picture.
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

net::DtsNetworkConfig config_with_nodes(int node_count, bool scheduled) {
  ActiveExperimentKnobs knobs;
  knobs.duration_days = sinet::bench::days_or(3.0);
  knobs.seed = sinet::bench::flags().seed;
  net::DtsNetworkConfig cfg = make_active_config(knobs);
  const net::IotNodeConfig prototype = cfg.nodes.front();
  cfg.nodes.clear();
  for (int i = 0; i < node_count; ++i) {
    net::IotNodeConfig nc = prototype;
    nc.name = "TQ-node-" + std::to_string(i + 1);
    cfg.nodes.push_back(nc);
  }
  if (scheduled) cfg.uplink_access = net::UplinkAccess::kScheduled;
  return cfg;
}

void reproduce() {
  sinet::bench::banner("Ablation",
                       "Footprint load: nodes sharing one satellite");

  Table t({"Nodes", "MAC", "reliability", "self-collisions",
           "attempts/packet", "peak concurrency"});
  for (const int nodes : {3, 9, 18}) {
    for (const bool scheduled : {false, true}) {
      const auto cfg = config_with_nodes(nodes, scheduled);
      const auto res = net::run_dts_network(cfg);
      const auto rel = summarize_reliability(
          res.uplinks, orbit::julian_to_unix(cfg.start_jd) +
                           cfg.duration_days * 86400.0);
      const auto rx = summarize_retx(res.uplinks);
      int peak = 0;
      for (const auto& u : res.uplinks)
        peak = std::max(peak, u.max_concurrent_tx);
      t.add_row({std::to_string(nodes),
                 scheduled ? "scheduled" : "ALOHA",
                 fmt_pct(rel.reliability),
                 std::to_string(res.counters.uplinks_collided -
                                res.counters.background_losses),
                 fmt(rx.mean_attempts, 2), std::to_string(peak)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nreading: under ALOHA, contention grows with the fleet (more "
      "collisions, more retransmissions per packet); scheduled subslots "
      "hold attempts flat until the beacon period itself runs out of "
      "subslots.\n");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

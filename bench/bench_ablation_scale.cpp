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
#include "core/scenario.h"

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

void BM_EighteenNodeDay(benchmark::State& state) {
  const auto cfg = config_with_nodes(18, false);
  net::DtsNetworkConfig one_day = cfg;
  one_day.duration_days = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::run_dts_network(one_day));
  }
}
BENCHMARK(BM_EighteenNodeDay)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- The DtS engine on population-scale fleets (scale_fleet_config)
// across worker counts. The 2,000-node arms keep per-packet traces (at
// most kTraceNodeLimit nodes); the larger ones keep only streaming
// aggregates. Results are thread-count-invariant by construction, so
// each arm asserts its aggregates byte-match the 1-thread reference for
// its population before timing is accepted — a wrong-but-fast schedule
// aborts the benchmark instead of reporting a speedup.
net::DtsNetworkConfig scale_engine_config(std::size_t nodes) {
  net::DtsNetworkConfig cfg = net::scale_fleet_config(
      nodes, 22, 16, campaign_epoch_jd(), sinet::bench::days_or(0.1));
  cfg.seed = sinet::bench::flags().seed;
  return cfg;
}

void expect_parallel_invariance(const net::DtsNetworkConfig& cfg,
                                const net::DtsAggregates& agg) {
  static std::map<std::size_t,
                  std::tuple<std::uint64_t, std::uint64_t, double, double>>
      reference;
  const std::size_t nodes = cfg.fleet.count;
  const auto key = std::make_tuple(agg.reports_generated,
                                   agg.reports_delivered,
                                   agg.sum_end_to_end_s, agg.sum_wait_s);
  const auto [it, inserted] = reference.emplace(nodes, key);
  if (!inserted && it->second != key) {
    std::fprintf(stderr,
                 "FATAL: parallel DtS aggregates diverged from the "
                 "1-thread reference at %zu nodes\n", nodes);
    std::abort();
  }
}

void BM_ScaleEngine_Parallel(benchmark::State& state) {
  auto cfg = scale_engine_config(static_cast<std::size_t>(state.range(0)));
  cfg.sim_threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    const net::DtsNetworkResult res = net::run_dts_network(cfg);
    expect_parallel_invariance(cfg, res.agg);
    benchmark::DoNotOptimize(res.agg.reports_delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::to_string(state.range(1)) + "T");
}
BENCHMARK(BM_ScaleEngine_Parallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({50000, 1})
    ->Args({50000, 2})
    ->Args({50000, 4})
    ->Args({200000, 1})
    ->Args({200000, 2})
    ->Args({200000, 4})
    ->Unit(benchmark::kMillisecond)
    // Wall time: the pool does the work, so the main thread's CPU time
    // (the default) would credit every arm with the speed of idling.
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

SINET_BENCH_MAIN(reproduce)

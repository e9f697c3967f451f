// Ablation — DtS optimizations the paper's conclusion calls for
// ("Our study calls for a specific focus on optimizing communication for
// DtS"): CosMAC-style scheduled access, TLE-based Doppler
// pre-compensation, and adaptive data rate, alone and combined, against
// the measured ALOHA/SF10 baseline.
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

struct Variant {
  const char* label;
  bool scheduled;
  bool precomp;
  bool adr;
};

void reproduce() {
  sinet::bench::banner("Ablation",
                       "DtS optimizations vs the measured baseline");

  const Variant variants[] = {
      {"baseline (ALOHA, SF10, no precomp)", false, false, false},
      {"+ scheduled MAC", true, false, false},
      {"+ Doppler precompensation", false, true, false},
      {"+ adaptive SF", false, false, true},
      {"all combined", true, true, true},
  };

  Table t({"Variant", "reliability", "collisions", "bg losses",
           "mean attempts", "node airtime (s/day)"});
  for (const Variant& v : variants) {
    ActiveExperimentKnobs knobs;
    knobs.duration_days = sinet::bench::days_or(5.0);
    knobs.seed = sinet::bench::flags().seed;
    net::DtsNetworkConfig cfg = make_active_config(knobs);
    if (v.scheduled)
      cfg.uplink_access = net::UplinkAccess::kScheduled;
    cfg.doppler_precompensation = v.precomp;
    cfg.adaptive_sf = v.adr;
    const auto res = net::run_dts_network(cfg);
    const auto rel = summarize_reliability(
        res.uplinks,
        orbit::julian_to_unix(cfg.start_jd) + cfg.duration_days * 86400.0);
    const auto rx = summarize_retx(res.uplinks);
    double airtime = 0.0;
    for (const auto& r : res.node_residency)
      airtime += r.seconds_in(energy::Mode::kTx);
    airtime /= (static_cast<double>(res.node_residency.size()) *
                knobs.duration_days);
    t.add_row({v.label, fmt_pct(rel.reliability),
               std::to_string(res.counters.uplinks_collided),
               std::to_string(res.counters.background_losses),
               fmt(rx.mean_attempts, 2), fmt(airtime, 1)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nreading: scheduling removes collision losses, pre-compensation "
      "removes the Doppler penalty at the window edges, ADR cuts airtime "
      "(and hence Tx energy) on good links. None fixes the dominant "
      "bottleneck — the intermittent effective windows (Fig 4).\n");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

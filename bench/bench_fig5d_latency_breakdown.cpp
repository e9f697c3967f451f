// Fig 5d — Decomposition of Tianqi's end-to-end latency into (1) waiting
// for a satellite pass, (2) DtS (re)transmissions, (3) delivery via
// satellite-to-GS and backhaul (paper: 55.2 / 10.4 / 56.9 minutes).
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 5d", "Tianqi latency decomposition");

  ActiveExperimentKnobs knobs;
  knobs.duration_days = sinet::bench::days_or(7.0);
  knobs.seed = sinet::bench::flags().seed;
  const auto cfg = make_active_config(knobs);
  const auto res = net::run_dts_network(cfg);
  const auto lat = summarize_latency(res);
  const auto& b = lat.mean_breakdown;

  Table t({"Segment", "paper (min)", "measured (min)", "share"});
  const double total =
      b.wait_for_pass_s + b.dts_transfer_s + b.delivery_s;
  t.add_row({"(1) wait for satellite pass", "55.2",
             fmt(b.wait_for_pass_s / 60.0, 1),
             fmt_pct(b.wait_for_pass_s / total)});
  t.add_row({"(2) DtS (re)transmissions", "10.4",
             fmt(b.dts_transfer_s / 60.0, 1),
             fmt_pct(b.dts_transfer_s / total)});
  t.add_row({"(3) delivery (sat-GS + backhaul)", "56.9",
             fmt(b.delivery_s / 60.0, 1), fmt_pct(b.delivery_s / total)});
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("dominant segments", "wait and delivery >> DtS",
                    "wait " + fmt(b.wait_for_pass_s / 60.0, 1) +
                        " + delivery " + fmt(b.delivery_s / 60.0, 1) +
                        " >> dts " + fmt(b.dts_transfer_s / 60.0, 1));
  std::printf("total mean latency: %.1f min (paper 135.2 min)\n",
              lat.mean_min);
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

// Fig 5a — End-to-end packet reliability: terrestrial LoRaWAN vs. Tianqi
// without retransmissions vs. Tianqi with up to 5 DtS retransmissions.
// Point estimates carry 95% bootstrap confidence bands from a 10-replicate
// Monte-Carlo sweep (seed streams derived from --seed). The ARQ-depth
// sweep is the DESIGN.md ablation.
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"
#include "exp/sweep_runner.h"

namespace {

using namespace sinet;
using namespace sinet::core;

constexpr std::size_t kReplicates = 10;

void reproduce() {
  sinet::bench::banner("Fig 5a", "End-to-end reliability: terr vs satellite");

  const double days = sinet::bench::days_or(7.0);

  // Headline cells: retx in {0, 5}, kReplicates seeds each. The custom
  // runner wraps run_active_comparison so the terrestrial baseline rides
  // along as one more metric.
  exp::SweepSpec spec;
  spec.name = "fig5a";
  spec.runner = "custom:active_comparison";
  spec.root_seed = sinet::bench::flags().seed;
  spec.replicates = kReplicates;
  spec.axes = {{"max_retransmissions", {0.0, 5.0}}};
  const auto runner = [days](const exp::RunPoint& p) -> exp::PointMetrics {
    ActiveExperimentKnobs knobs;
    knobs.duration_days = days;
    knobs.max_retransmissions =
        static_cast<int>(p.param_or("max_retransmissions", 5.0));
    knobs.seed = p.seed;
    const ActiveComparison cmp = run_active_comparison(knobs);
    const auto rel =
        summarize_reliability(cmp.satellite.uplinks, cmp.run_end_unix_s);
    return {{"reliability", rel.reliability},
            {"terrestrial_reliability", cmp.terrestrial.delivered_fraction()}};
  };
  exp::SweepOptions opts;
  opts.threads = sinet::bench::flags().threads;
  const exp::SweepResult res = exp::run_sweep(spec, runner, opts);

  const auto& no_retx = res.cells[0].metrics;
  const auto& retx5 = res.cells[1].metrics;
  Table t({"System", "reliability", "95% CI"});
  const auto& terr = no_retx.at("terrestrial_reliability");
  const auto& rel0 = no_retx.at("reliability");
  const auto& rel5 = retx5.at("reliability");
  t.add_row({"Terrestrial LoRaWAN", fmt_pct(terr.mean),
             "[" + fmt_pct(terr.ci_low) + ", " + fmt_pct(terr.ci_high) + "]"});
  t.add_row({"Tianqi (no retx)", fmt_pct(rel0.mean),
             "[" + fmt_pct(rel0.ci_low) + ", " + fmt_pct(rel0.ci_high) + "]"});
  t.add_row({"Tianqi (<=5 retx)", fmt_pct(rel5.mean),
             "[" + fmt_pct(rel5.ci_low) + ", " + fmt_pct(rel5.ci_high) + "]"});
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("terrestrial reliability", "~100%", fmt_pct(terr.mean));
  sinet::bench::pvm("satellite, no retx", "91%", fmt_pct(rel0.mean));
  sinet::bench::pvm("satellite, <=5 retx", "96%", fmt_pct(rel5.mean));

  // Ablation: ARQ depth sweep (0..5) through the built-in "active" runner,
  // kReplicates seeds per depth.
  std::printf("\nAblation: ARQ depth vs reliability "
              "(%zu replicates, 3-day runs):\n", kReplicates);
  exp::SweepSpec ablation;
  ablation.name = "fig5a-arq";
  ablation.runner = "active";
  ablation.root_seed = sinet::bench::flags().seed;
  ablation.replicates = kReplicates;
  ablation.axes = {{"max_retransmissions", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}},
                   {"duration_days", {sinet::bench::days_or(3.0)}}};
  const exp::SweepResult arq = exp::run_sweep(ablation, opts);
  Table a({"max retx", "reliability", "95% CI", "mean attempts"});
  for (const exp::CellAggregate& cell : arq.cells) {
    const auto& rel = cell.metrics.at("reliability");
    const auto& att = cell.metrics.at("mean_attempts");
    a.add_row({fmt(cell.params[0].second, 0), fmt_pct(rel.mean),
               std::string("[")
                   .append(fmt_pct(rel.ci_low))
                   .append(", ")
                   .append(fmt_pct(rel.ci_high))
                   .append("]"),
               fmt(att.mean, 2)});
  }
  std::printf("%s", a.render().c_str());
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

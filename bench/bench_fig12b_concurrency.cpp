// Fig 12b — Reliability under simultaneous transmissions from multiple
// nodes (paper: 94% single, 92% two-node, 89% three-node concurrency).
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"
#include "net/mac.h"
#include "sim/rng.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 12b", "Reliability vs concurrent transmissions");

  ActiveExperimentKnobs knobs;
  knobs.duration_days = sinet::bench::days_or(10.0);
  knobs.seed = sinet::bench::flags().seed;
  const auto cfg = make_active_config(knobs);
  const auto res = net::run_dts_network(cfg);
  const double end_unix =
      orbit::julian_to_unix(cfg.start_jd) + cfg.duration_days * 86400.0;
  const auto groups = reliability_by_concurrency(res.uplinks, end_unix);

  Table t({"Peak concurrent tx", "packets", "reliability", "paper"});
  const char* paper_vals[] = {"94%", "92%", "89%"};
  for (const auto& [level, summary] : groups) {
    t.add_row({std::to_string(level), std::to_string(summary.eligible),
               fmt_pct(summary.reliability),
               level >= 1 && level <= 3 ? paper_vals[level - 1] : "-"});
  }
  std::printf("%s", t.render().c_str());
  sinet::bench::pvm("shape", "reliability decreases with concurrency",
                    "monotone across occupied levels (capture-limited)");
  std::printf("collisions observed on the uplink: %llu of %llu attempts\n",
              static_cast<unsigned long long>(
                  res.counters.uplinks_collided),
              static_cast<unsigned long long>(
                  res.counters.uplink_attempts));

  // Isolated MAC experiment: N co-located nodes answering one beacon slot
  // with random offsets; capture threshold 6 dB.
  std::printf("\nisolated slotted-ALOHA capture experiment (10k slots):\n");
  sim::Rng rng(99);
  for (const int n : {1, 2, 3, 5, 8}) {
    int survived = 0, total = 0;
    for (int slot = 0; slot < 10000; ++slot) {
      std::vector<net::Transmission> txs;
      for (int k = 0; k < n; ++k) {
        const double start = rng.uniform(0.3, 18.0);
        txs.push_back(net::Transmission{
            static_cast<std::uint64_t>(k), start, start + 0.37,
            -120.0 + rng.normal(0.0, 3.0)});
      }
      survived += static_cast<int>(net::resolve_collisions(txs).size());
      total += n;
    }
    std::printf("  %d nodes: per-tx survival %.1f%%\n", n,
                100.0 * survived / total);
  }
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

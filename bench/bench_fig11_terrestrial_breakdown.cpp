// Fig 11 — Terrestrial node operating-time and energy breakdown: ~95% of
// time in sleep+standby, yet >70% of energy in Tx+Rx.
//
// Two profiles are reported: the workload-derived duty cycle (48 reports
// per day; sleep energy dominates at the published mode powers) and the
// calibrated profile matching the paper's measured figure — the
// difference itself is a finding (see EXPERIMENTS.md).
#include "bench_common.h"

#include "core/report.h"
#include "energy/duty_cycle.h"

namespace {

using namespace sinet;
using namespace sinet::core;
using namespace sinet::energy;

void print_breakdown(const char* title, const ResidencyTracker& t) {
  const PowerProfile p = terrestrial_node_profile();
  std::printf("%s\n", title);
  Table table({"Mode", "time share", "energy share"});
  for (const Mode m :
       {Mode::kSleep, Mode::kStandby, Mode::kRx, Mode::kTx}) {
    table.add_row({to_string(m), fmt_pct(t.time_fraction(m)),
                   fmt_pct(t.energy_fraction(m, p))});
  }
  std::printf("%s", table.render().c_str());
  const double low_time =
      t.time_fraction(Mode::kSleep) + t.time_fraction(Mode::kStandby);
  const double radio_energy =
      t.energy_fraction(Mode::kTx, p) + t.energy_fraction(Mode::kRx, p);
  std::printf("  sleep+standby time: %s   tx+rx energy: %s\n\n",
              fmt_pct(low_time).c_str(), fmt_pct(radio_energy).c_str());
}

void reproduce() {
  sinet::bench::banner("Fig 11",
                       "Terrestrial node time & energy breakdown");
  print_breakdown("workload-derived duty (48 reports/day):",
                  terrestrial_daily_duty());
  print_breakdown("calibrated to the paper's measured breakdown:",
                  paper_fig11_terrestrial_duty());

  const ResidencyTracker paper_duty = paper_fig11_terrestrial_duty();
  const PowerProfile p = terrestrial_node_profile();
  sinet::bench::pvm(
      "time in sleep+standby", "95%",
      fmt_pct(paper_duty.time_fraction(Mode::kSleep) +
              paper_duty.time_fraction(Mode::kStandby)));
  sinet::bench::pvm(
      "energy in tx+rx", ">70%",
      fmt_pct(paper_duty.energy_fraction(Mode::kTx, p) +
              paper_duty.energy_fraction(Mode::kRx, p)));
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

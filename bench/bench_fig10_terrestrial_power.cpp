// Fig 10 — Power consumption of the terrestrial LoRaWAN node per mode
// (paper measurements: Tx 1630 mW, Rx 265 mW, Standby 146 mW, Sleep
// 19.1 mW), plus the per-report energy cost they imply.
#include "bench_common.h"

#include "core/report.h"
#include "energy/power_model.h"
#include "phy/lora.h"

namespace {

using namespace sinet;
using namespace sinet::core;
using namespace sinet::energy;

void reproduce() {
  sinet::bench::banner("Fig 10", "Terrestrial node per-mode power");

  const PowerProfile p = terrestrial_node_profile();
  Table t({"Mode", "paper (mW)", "model (mW)"});
  t.add_row({"Tx", "1630", fmt(p.power_mw(Mode::kTx), 0)});
  t.add_row({"Rx", "265", fmt(p.power_mw(Mode::kRx), 0)});
  t.add_row({"Standby", "146", fmt(p.power_mw(Mode::kStandby), 0)});
  t.add_row({"Sleep", "19.1", fmt(p.power_mw(Mode::kSleep), 1)});
  std::printf("%s", t.render().c_str());

  // Per-report energy: one SF10 uplink + class-A receive windows.
  const double toa = phy::time_on_air_s(phy::default_dts_params(), 20);
  const double tx_mj = p.power_mw(Mode::kTx) * toa;
  const double rx_mj = p.power_mw(Mode::kRx) * 0.4;
  std::printf(
      "\nper 20-byte report: %.0f ms airtime -> %.1f mJ Tx + %.1f mJ Rx "
      "windows = %.1f mJ\n",
      toa * 1e3, tx_mj, rx_mj, tx_mj + rx_mj);
  sinet::bench::pvm("Tx is the most expensive mode", "1630 mW",
                    fmt(p.power_mw(Mode::kTx), 0) + " mW (" +
                        fmt(p.power_mw(Mode::kTx) / p.power_mw(Mode::kSleep),
                            0) + "x sleep)");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

// Table 2 — System expenditure comparison, plus the break-even analysis
// the table implies.
#include "bench_common.h"

#include "core/report.h"
#include "cost/cost_model.h"

namespace {

using namespace sinet;
using namespace sinet::core;
using namespace sinet::cost;

void reproduce() {
  sinet::bench::banner("Table 2", "System expenditure comparison");

  Workload w;  // 20 B / 30 min, one sensor
  const TerrestrialPricing tp;
  const SatellitePricing sp;

  Table t({"Network", "Device cost", "Infrastructure cost",
           "Operational cost"});
  t.add_row({"Terrestrial IoT", "$" + fmt(tp.end_node_usd, 0) + " per unit",
             "$" + fmt(tp.gateway_usd, 0) + " per gateway",
             "$" + fmt(terrestrial_monthly_usd(1, tp), 1) + " per month"});
  t.add_row({"Satellite IoT", "$" + fmt(sp.node_usd, 0) + " per unit", "-",
             "$" + fmt(satellite_monthly_usd(w, sp), 2) + " per month"});
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("satellite monthly cost", "$23.76 per sensor",
                    "$" + fmt(satellite_monthly_usd(w, sp), 2));
  sinet::bench::pvm("terrestrial monthly cost", "$4.9 per gateway",
                    "$" + fmt(terrestrial_monthly_usd(1, tp), 1));
  sinet::bench::pvm(
      "packets per sensor per day", "48",
      fmt(satellite_packets_per_day(w, sp), 0));

  // Break-even: satellite saves CAPEX, loses OPEX.
  std::printf("\nBreak-even (satellite cheaper until month X):\n");
  Table b({"Sensors", "Gateways", "Break-even (months)"});
  for (const int sensors : {1, 3, 10}) {
    Workload ws = w;
    ws.sensor_count = sensors;
    const double be = breakeven_months(ws, 3, tp, sp);
    b.add_row({std::to_string(sensors), "3", fmt(be, 1)});
  }
  std::printf("%s", b.render().c_str());
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

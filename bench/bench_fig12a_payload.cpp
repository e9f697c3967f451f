// Fig 12a — End-to-end reliability vs payload size (10 / 60 / 120 bytes):
// longer LoRa frames occupy more symbols and fail more often on marginal
// DtS links.
#include "bench_common.h"

#include "core/active_experiment.h"
#include "core/report.h"
#include "phy/error_model.h"

namespace {

using namespace sinet;
using namespace sinet::core;

void reproduce() {
  sinet::bench::banner("Fig 12a", "Reliability vs payload size");

  Table t({"Payload (B)", "reliability", "airtime (ms)"});
  std::vector<double> rel;
  for (const int payload : {10, 60, 120}) {
    ActiveExperimentKnobs knobs;
    knobs.duration_days = sinet::bench::days_or(5.0);
    knobs.seed = sinet::bench::flags().seed;
    // Without ARQ, the single uplink attempt carries the payload effect
    // undiluted (the paper's Fig 12a distribution is over transmissions).
    knobs.max_retransmissions = 0;
    knobs.payload_bytes = payload;
    const auto cfg = make_active_config(knobs);
    const auto res = net::run_dts_network(cfg);
    const auto r = summarize_reliability(
        res.uplinks,
        orbit::julian_to_unix(cfg.start_jd) + cfg.duration_days * 86400.0);
    rel.push_back(r.reliability);
    t.add_row({std::to_string(payload), fmt_pct(r.reliability),
               fmt(phy::time_on_air_s(phy::default_dts_params(), payload) *
                       1e3, 0)});
  }
  std::printf("%s", t.render().c_str());

  sinet::bench::pvm("ordering", "10 B >= 60 B > 120 B reliability",
                    fmt_pct(rel[0]) + " / " + fmt_pct(rel[1]) + " / " +
                        fmt_pct(rel[2]));

  // The PHY-level mechanism, isolated from the protocol: PER vs payload
  // at a fixed marginal SNR.
  const phy::ErrorModel model;
  const auto params = phy::default_dts_params();
  const double snr = phy::demod_snr_threshold_db(params.sf) + 1.0;
  std::printf("\nPER at threshold+1dB: ");
  for (const int payload : {10, 60, 120})
    std::printf("%dB=%.1f%%  ", payload,
                100.0 * model.packet_error_probability(snr, params, payload));
  std::printf("\n");
}

}  // namespace

SINET_BENCH_MAIN(reproduce)

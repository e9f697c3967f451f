// Ablation — the shared-ephemeris pass-prediction engine. Times the
// full-campaign pass-prediction workload (39 satellites x 8 sites, the
// geometry behind Table 1 / Figs 3-4) in two single-thread arms:
//
//   shared+culled  scan_pass_pairs in PropagationMode::kReference: each
//                  satellite propagated once per sample, shared across
//                  all 8 sites, with the conservative horizon-cone cull
//                  skipping provably-below-mask stretches
//   shared+culled+simd  the same scan under PropagationMode::kFast: the
//                  SoA/SIMD batch propagator fills the table four
//                  satellites at a time and the fused look-angle kernel
//                  classifies four observers per sample
//
// The reference arm's windows are bit-identical to the per-pair scalar
// scan (ctest holds it to tests/pass_scan_oracle.h). The simd arm is
// tolerance-equal (window edges within one coarse step; see
// docs/PERFORMANCE.md) and its window counts are checked against the
// reference arm before the timings. The 30-day BM_CampaignScan_* rows
// are tracked in BENCH_RESULTS.json.
#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <vector>

#include "core/scenario.h"
#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/passes.h"

namespace {

using namespace sinet;
using namespace sinet::core;
using namespace sinet::orbit;

std::vector<Tle> campaign_tles() {
  std::vector<Tle> tles;
  for (const ConstellationSpec& spec : paper_constellations()) {
    const auto batch = generate_tles(spec, campaign_epoch_jd());
    tles.insert(tles.end(), batch.begin(), batch.end());
  }
  return tles;
}

struct Workload {
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  std::vector<const Sgp4*> sat_ptrs;
  std::vector<GridObserver> observers;
  std::vector<PairTask> pairs;
};

Workload campaign_workload() {
  Workload w;
  w.tles = campaign_tles();
  w.props.reserve(w.tles.size());
  for (const Tle& tle : w.tles) w.props.emplace_back(tle);
  for (const Sgp4& prop : w.props) w.sat_ptrs.push_back(&prop);
  for (const MeasurementSite& site : paper_measurement_sites())
    w.observers.push_back(GridObserver{site.location});
  for (std::size_t s = 0; s < w.props.size(); ++s)
    for (std::size_t o = 0; o < w.observers.size(); ++o)
      w.pairs.push_back(PairTask{s, o});
  return w;
}

std::vector<std::vector<ContactWindow>> run_engine(
    const Workload& w, double span_days, PropagationMode mode,
    obs::MetricsRegistry* metrics = nullptr) {
  const JulianDate start = campaign_epoch_jd();
  EphemerisScanOptions scan_opts;
  scan_opts.mode = mode;
  return scan_pass_pairs(w.sat_ptrs, w.observers, w.pairs, start,
                         start + span_days, {}, scan_opts, /*threads=*/1,
                         metrics);
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto windows = fn();
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(windows);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void reproduce() {
  // Parity + counters on a short span; the 30-day timings live in the
  // BM_CampaignScan_* rows below (and BENCH_RESULTS.json).
  const double span_days = std::min(sinet::bench::days_or(30.0), 3.0);
  sinet::bench::banner(
      "Ablation", "Shared-ephemeris pass prediction (39 sats x 8 sites, " +
                      fmt(span_days, 1) + " days)");

  const Workload w = campaign_workload();
  obs::MetricsRegistry metrics;
  const auto reference =
      run_engine(w, span_days, PropagationMode::kReference, &metrics);
  const auto simd = run_engine(w, span_days, PropagationMode::kFast);

  std::size_t simd_count_mismatched = 0;
  for (std::size_t p = 0; p < w.pairs.size(); ++p)
    if (simd[p].size() != reference[p].size()) ++simd_count_mismatched;
  std::printf("parity: %zu/%zu window counts matched by the simd arm\n\n",
              w.pairs.size() - simd_count_mismatched, w.pairs.size());
  if (simd_count_mismatched != 0) {
    std::fprintf(stderr,
                 "FATAL: simd window counts diverge from the reference arm\n");
    std::exit(1);
  }

  const double reference_ms = time_ms(
      [&] { return run_engine(w, span_days, PropagationMode::kReference); });
  const double simd_ms = time_ms(
      [&] { return run_engine(w, span_days, PropagationMode::kFast); });
  Table t({"arm", "wall (ms)", "speedup vs reference"});
  t.add_row({"shared + culled (reference)", fmt(reference_ms, 1), "1.00x"});
  t.add_row({"shared + culled + simd", fmt(simd_ms, 1),
             fmt(reference_ms / simd_ms, 2) + "x"});
  std::printf("%s", t.render().c_str());

  const auto snap = metrics.snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ull : it->second;
  };
  const unsigned long long visited =
      counter("orbit.ephemeris.samples_visited");
  const unsigned long long skipped = counter("orbit.ephemeris.samples_culled");
  std::printf(
      "\nengine counters (reference arm): %llu propagations "
      "(%llu avoided vs per-pair), %llu/%llu samples culled (%.1f%%)\n",
      counter("orbit.ephemeris.propagations"),
      counter("orbit.ephemeris.propagations_avoided"), skipped,
      visited + skipped,
      100.0 * static_cast<double>(skipped) /
          static_cast<double>(visited + skipped > 0 ? visited + skipped : 1));
}

// --- the tracked 30-day campaign rows ------------------------------------

void BM_CampaignScan_SharedCulled(benchmark::State& state) {
  const Workload w = campaign_workload();
  const double days = sinet::bench::days_or(30.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_engine(w, days, PropagationMode::kReference));
}
BENCHMARK(BM_CampaignScan_SharedCulled)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_CampaignScan_SharedCulledSimd(benchmark::State& state) {
  const Workload w = campaign_workload();
  const double days = sinet::bench::days_or(30.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(run_engine(w, days, PropagationMode::kFast));
}
BENCHMARK(BM_CampaignScan_SharedCulledSimd)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SINET_BENCH_MAIN(reproduce)

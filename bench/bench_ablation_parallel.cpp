// Ablation — the parallel pass-prediction engine. Times the full-campaign
// pass-prediction workload (39 satellites x 8 sites, the geometry behind
// Table 1 / Figs 3-4) serially and fanned out on the shared thread pool,
// then ablates the two single-thread optimisations underneath it: the
// fused GMST rotation (ElevationSampler) and the ContactWindowCache.
#include "bench_common.h"

#include <chrono>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/frames.h"
#include "orbit/passes.h"
#include "sim/thread_pool.h"

namespace {

using namespace sinet;
using namespace sinet::core;
using namespace sinet::orbit;

constexpr double kSpanDays = 2.0;

std::vector<Tle> campaign_tles() {
  std::vector<Tle> tles;
  for (const ConstellationSpec& spec : paper_constellations()) {
    const auto batch = generate_tles(spec, campaign_epoch_jd());
    tles.insert(tles.end(), batch.begin(), batch.end());
  }
  return tles;
}

/// Every site of the passive campaign.
std::vector<GridObserver> campaign_sites() {
  std::vector<GridObserver> observers;
  for (const MeasurementSite& site : paper_measurement_sites())
    observers.push_back(GridObserver{site.location});
  return observers;
}

double time_grid_ms(const std::vector<const Sgp4*>& sats,
                    const std::vector<GridObserver>& observers,
                    unsigned threads) {
  const JulianDate start = campaign_epoch_jd();
  const auto t0 = std::chrono::steady_clock::now();
  const auto windows = predict_passes_grid(sats, observers, start,
                                           start + kSpanDays, {}, threads);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(windows);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void reproduce() {
  sinet::bench::banner("Ablation",
                       "Parallel pass prediction (39 sats x 8 sites, " +
                           std::to_string(static_cast<int>(kSpanDays)) +
                           " days)");

  const auto tles = campaign_tles();
  std::vector<Sgp4> props;
  props.reserve(tles.size());
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<const Sgp4*> sats;
  for (const Sgp4& prop : props) sats.push_back(&prop);
  const auto observers = campaign_sites();
  std::printf("hardware threads: %u, pairs: %zu\n\n",
              sim::ThreadPool::hardware_threads(),
              sats.size() * observers.size());

  const double serial_ms = time_grid_ms(sats, observers, 1);
  Table t({"threads", "wall (ms)", "speedup vs serial"});
  t.add_row({"1 (serial)", fmt(serial_ms, 1), "1.00x"});
  for (const unsigned threads :
       {2u, 4u, sim::ThreadPool::hardware_threads()}) {
    if (threads <= 1) continue;
    const double ms = time_grid_ms(sats, observers, threads);
    t.add_row({std::to_string(threads), fmt(ms, 1),
               fmt(serial_ms / ms, 2) + "x"});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nnote: the pool cannot beat serial on a 1-core host; on >= 4 cores "
      "the 312 independent pairs scale near-linearly.\n");

  // Cache ablation: an identical second campaign is pure hits.
  ContactWindowCache cache;
  const auto site = paper_measurement_sites().front().location;
  const JulianDate start = campaign_epoch_jd();
  auto cached_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const auto ws = predict_passes_grid_cached(
        tles, {GridObserver{site}}, start, start + kSpanDays, {}, 0, &cache);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(ws);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  const double cold = cached_ms();
  const double warm = cached_ms();
  const auto stats = cache.stats();
  std::printf(
      "\nContactWindowCache (39 sats, one site): cold %.1f ms, warm %.3f ms "
      "(%.0fx), %llu hits / %llu misses\n",
      cold, warm, cold / (warm > 0.0 ? warm : 1e-9),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses));
}

// --- microbenchmarks -----------------------------------------------------

/// Per-sample elevation, legacy path: GMST evaluated twice per sample via
/// the separate position/velocity rotations, observer re-derived each call.
void BM_ElevationSample_Legacy(benchmark::State& state) {
  const auto tles = campaign_tles();
  const Sgp4 prop(tles.front());
  const Geodetic site = paper_site("HK").location;
  JulianDate jd = campaign_epoch_jd();
  for (auto _ : state) {
    const TemeState st = prop.at_jd(jd);
    const Vec3 r = teme_to_ecef_position(st.position_km, jd);
    const Vec3 v =
        teme_to_ecef_velocity(st.position_km, st.velocity_km_s, jd);
    benchmark::DoNotOptimize(look_angles(site, r, v).elevation_deg);
    jd += 30.0 / kSecondsPerDay;
  }
}
BENCHMARK(BM_ElevationSample_Legacy);

/// Per-sample elevation, fused path: one GMST rotation + hoisted observer.
void BM_ElevationSample_Fused(benchmark::State& state) {
  const auto tles = campaign_tles();
  const Sgp4 prop(tles.front());
  const ElevationSampler sampler(prop, paper_site("HK").location);
  JulianDate jd = campaign_epoch_jd();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.elevation_deg(jd));
    jd += 30.0 / kSecondsPerDay;
  }
}
BENCHMARK(BM_ElevationSample_Fused);

/// One-day grid scan over one site at different worker counts.
void BM_BatchPasses(benchmark::State& state) {
  const auto tles = campaign_tles();
  std::vector<Sgp4> props;
  props.reserve(tles.size());
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<const Sgp4*> sats;
  for (const Sgp4& prop : props) sats.push_back(&prop);
  const std::vector<GridObserver> site{{paper_site("HK").location}};
  const JulianDate start = campaign_epoch_jd();
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_passes_grid(
        sats, site, start, start + 1.0, {},
        static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_BatchPasses)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// Warm-cache grid call: every window served from the ContactWindowCache.
void BM_BatchPasses_CacheHit(benchmark::State& state) {
  const auto tles = campaign_tles();
  const std::vector<GridObserver> site{{paper_site("HK").location}};
  const JulianDate start = campaign_epoch_jd();
  ContactWindowCache cache;
  benchmark::DoNotOptimize(predict_passes_grid_cached(
      tles, site, start, start + 1.0, {}, 0, &cache));
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_passes_grid_cached(
        tles, site, start, start + 1.0, {}, 0, &cache));
  }
}
BENCHMARK(BM_BatchPasses_CacheHit)->Unit(benchmark::kMillisecond);

}  // namespace

SINET_BENCH_MAIN(reproduce)

// Parallel pass-prediction engine: thread pool semantics, serial-vs-
// parallel bit parity of predict_passes_grid over a mixed constellation,
// and ContactWindowCache hit behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/passes.h"
#include "pass_scan_oracle.h"
#include "sim/thread_pool.h"

namespace {

using namespace sinet;
using namespace sinet::orbit;

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadCountMeansHardware) {
  sim::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), sim::ThreadPool::hardware_threads());
  EXPECT_GE(sim::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, EmptyAndSingleIterationsWork) {
  sim::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  sim::ThreadPool pool(3);
  try {
    pool.parallel_for(16, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("task 11");
      if (i == 5) throw std::runtime_error("task 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
  }
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> sum{0};
  sim::ThreadPool::shared().parallel_for(
      10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

// --- Grid parity ---------------------------------------------------------

/// The full 39-satellite mixed constellation of the paper's campaign.
std::vector<Tle> mixed_constellation(JulianDate epoch) {
  std::vector<Tle> tles;
  for (const ConstellationSpec& spec : paper_constellations()) {
    const auto batch = generate_tles(spec, epoch);
    tles.insert(tles.end(), batch.begin(), batch.end());
  }
  return tles;
}

void expect_identical(const std::vector<std::vector<ContactWindow>>& a,
                      const std::vector<std::vector<ContactWindow>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "satellite " << i;
    for (std::size_t w = 0; w < a[i].size(); ++w) {
      // EXPECT_EQ on doubles: bit-for-bit identity, not approximation.
      EXPECT_EQ(a[i][w].aos_jd, b[i][w].aos_jd);
      EXPECT_EQ(a[i][w].los_jd, b[i][w].los_jd);
      EXPECT_EQ(a[i][w].tca_jd, b[i][w].tca_jd);
      EXPECT_EQ(a[i][w].max_elevation_deg, b[i][w].max_elevation_deg);
    }
  }
}

/// predict_passes_grid over one site: per-satellite windows ([s][0]).
std::vector<std::vector<ContactWindow>> grid_over_site(
    const std::vector<const Sgp4*>& sats, const Geodetic& site,
    JulianDate start, JulianDate end, const PassPredictionOptions& opts,
    unsigned threads) {
  auto grid = predict_passes_grid(sats, {GridObserver{site}}, start, end,
                                  opts, threads);
  std::vector<std::vector<ContactWindow>> out(grid.size());
  for (std::size_t s = 0; s < grid.size(); ++s) out[s] = std::move(grid[s][0]);
  return out;
}

TEST(PredictPassesGrid, ParallelIsBitIdenticalToSerial) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = mixed_constellation(epoch);
  ASSERT_EQ(tles.size(), 39u);
  const Geodetic site = core::paper_site("HK").location;

  std::vector<Sgp4> props;
  props.reserve(tles.size());
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<const Sgp4*> sats;
  for (const Sgp4& prop : props) sats.push_back(&prop);

  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;

  // Reference: the plain serial per-pair oracle scan.
  std::vector<std::vector<ContactWindow>> serial(tles.size());
  for (std::size_t i = 0; i < tles.size(); ++i)
    serial[i] = sinet::testing::oracle_predict_passes(
        props[i], site, epoch, epoch + 1.0, opts);

  const auto one = grid_over_site(sats, site, epoch, epoch + 1.0, opts, 1);
  const auto four = grid_over_site(sats, site, epoch, epoch + 1.0, opts, 4);
  const auto hw = grid_over_site(sats, site, epoch, epoch + 1.0, opts, 0);

  expect_identical(serial, one);
  expect_identical(one, four);
  expect_identical(one, hw);

  // Sanity: the campaign span actually contains contacts.
  std::size_t total = 0;
  for (const auto& ws : one) total += ws.size();
  EXPECT_GT(total, 10u);
}

TEST(PredictPassesGrid, ValidatesBeforeSpawning) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("FOSSA"), epoch);
  std::vector<Sgp4> props;
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<const Sgp4*> sats;
  for (const Sgp4& p : props) sats.push_back(&p);
  const std::vector<GridObserver> site{{core::paper_site("HK").location}};

  // Every thread count validates on the calling thread, before any task.
  for (const unsigned threads : {1u, 4u, 0u}) {
    EXPECT_THROW(
        predict_passes_grid(sats, site, epoch, epoch - 1.0, {}, threads),
        std::invalid_argument);
    PassPredictionOptions bad;
    bad.coarse_step_s = 0.0;
    EXPECT_THROW(
        predict_passes_grid(sats, site, epoch, epoch + 1.0, bad, threads),
        std::invalid_argument);
    std::vector<const Sgp4*> with_null = sats;
    with_null[1] = nullptr;
    EXPECT_THROW(
        predict_passes_grid(with_null, site, epoch, epoch + 1.0, {}, threads),
        std::invalid_argument);
  }
}

TEST(ElevationSampler, MatchesNaiveFramePath) {
  // The sampler shares one GMST rotation between position and velocity;
  // this must be bit-identical to the two-call frame conversion it
  // replaced (sample_geometry now routes through the sampler).
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("PICO"), epoch);
  const Sgp4 prop(tles.front());
  const Geodetic site = core::paper_site("SYD").location;
  const ElevationSampler sampler(prop, site);
  for (int i = 0; i < 200; ++i) {
    const JulianDate jd = epoch + i * (1.0 / 288.0);
    const PassSample s = sampler.sample(jd);
    const PassSample naive = sample_geometry(prop, site, jd);
    EXPECT_EQ(s.look.elevation_deg, naive.look.elevation_deg);
    EXPECT_EQ(s.look.azimuth_deg, naive.look.azimuth_deg);
    EXPECT_EQ(s.look.range_km, naive.look.range_km);
    EXPECT_EQ(s.look.range_rate_km_s, naive.look.range_rate_km_s);
    EXPECT_EQ(sampler.elevation_deg(jd), s.look.elevation_deg);
  }
}

// --- ContactWindowCache --------------------------------------------------

/// Looks (tle, site, span, opts) up through get_or_compute; a miss runs
/// the production grid scan of the pair and bumps `runs`.
std::vector<ContactWindow> counted_lookup(ContactWindowCache& cache,
                                          const Tle& tle, const Geodetic& site,
                                          JulianDate start, JulianDate end,
                                          std::atomic<int>& runs,
                                          const PassPredictionOptions& opts =
                                              {}) {
  return cache.get_or_compute(
      tle, site, start, end, opts, [&] {
        runs.fetch_add(1);
        const Sgp4 prop(tle);
        return predict_passes_grid({&prop}, {GridObserver{site}}, start, end,
                                   opts, 1)[0][0];
      });
}

TEST(ContactWindowCache, HitReturnsIdenticalWindows) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("CSTP"), epoch);
  const Geodetic site = core::paper_site("LDN").location;

  ContactWindowCache cache;
  std::atomic<int> runs{0};
  const auto first =
      counted_lookup(cache, tles[0], site, epoch, epoch + 1.0, runs);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(runs.load(), 1);

  const auto second =
      counted_lookup(cache, tles[0], site, epoch, epoch + 1.0, runs);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(runs.load(), 1);  // served without computing
  expect_identical({first}, {second});

  // A different span / option set is a distinct key.
  (void)counted_lookup(cache, tles[0], site, epoch, epoch + 2.0, runs);
  PassPredictionOptions masked;
  masked.min_elevation_deg = 10.0;
  (void)counted_lookup(cache, tles[0], site, epoch, epoch + 1.0, runs,
                       masked);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(runs.load(), 3);
}

TEST(ContactWindowCache, GridCachedHitsOnSecondCall) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("PICO"), epoch);
  const std::vector<GridObserver> site{{core::paper_site("PGH").location}};

  ContactWindowCache cache;
  const auto first = predict_passes_grid_cached(tles, site, epoch,
                                                epoch + 1.0, {}, 0, &cache);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, tles.size());
  EXPECT_EQ(stats.hits, 0u);

  const auto second = predict_passes_grid_cached(tles, site, epoch,
                                                 epoch + 1.0, {}, 0, &cache);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, tles.size());
  EXPECT_EQ(stats.misses, tles.size());

  // The uncached grid scan computes the same thing from scratch.
  std::vector<Sgp4> props(tles.begin(), tles.end());
  std::vector<const Sgp4*> sats;
  for (const Sgp4& p : props) sats.push_back(&p);
  const auto uncached = predict_passes_grid(sats, site, epoch, epoch + 1.0);
  for (std::size_t s = 0; s < tles.size(); ++s) {
    expect_identical({first[s][0]}, {second[s][0]});
    expect_identical({first[s][0]}, {uncached[s][0]});
  }
  EXPECT_EQ(cache.stats().hits, tles.size());  // untouched
}

TEST(ContactWindowCache, ClearAndEviction) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("FOSSA"), epoch);
  const Geodetic site = core::paper_site("HK").location;

  ContactWindowCache tiny(2);  // max two entries -> LRU eviction
  std::atomic<int> runs{0};
  for (const Tle& tle : tles)
    (void)counted_lookup(tiny, tle, site, epoch, epoch + 0.5, runs);
  EXPECT_EQ(tiny.stats().entries, 2u);
  EXPECT_EQ(runs.load(), static_cast<int>(tles.size()));
  // The oldest entry (tles[0]) was evicted: re-requesting it misses.
  (void)counted_lookup(tiny, tles[0], site, epoch, epoch + 0.5, runs);
  EXPECT_EQ(tiny.stats().misses, tles.size() + 1);
  EXPECT_EQ(runs.load(), static_cast<int>(tles.size()) + 1);

  tiny.clear();
  const auto stats = tiny.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  // Cleared means recomputed.
  (void)counted_lookup(tiny, tles[0], site, epoch, epoch + 0.5, runs);
  EXPECT_EQ(runs.load(), static_cast<int>(tles.size()) + 2);
}

}  // namespace

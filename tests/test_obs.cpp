// Unit tests for the run-metrics observability layer (src/obs) and its
// wiring into the sim core: metric types, registry, timers, the
// RunReport JSON/CSV exporter round-trip, and the ThreadPool
// instrumentation hooks.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/scoped_timer.h"
#include "sim/thread_pool.h"

namespace {

using namespace sinet::obs;

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetTracksMax) {
  Gauge g;
  g.set(3.0);
  g.set(7.0);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
}

TEST(Gauge, MaxOfUntouchedGaugeIsValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(Gauge, AddAccumulates) {
  Gauge g;
  g.add(1.5);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  EXPECT_DOUBLE_EQ(g.max(), 4.0);
}

TEST(ObsHistogram, BinsAndEdgeBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.record(-1.0);   // underflow
  h.record(0.0);    // bin 0
  h.record(9.999);  // bin 4
  h.record(10.0);   // overflow (hi is exclusive)
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(ObsHistogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(ObsHistogram, ConcurrentRecordsLoseNothing) {
  Histogram h(0.0, 1.0, 8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>(i % 100) / 100.0);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t binned = h.underflow() + h.overflow() + h.nan_count();
  for (std::size_t i = 0; i < h.bin_count(); ++i) binned += h.count(i);
  EXPECT_EQ(binned, h.total());
}

TEST(SnapshotQuantile, InterpolatesWithinBins) {
  // 10 equal-width bins over [0, 100), one sample per bin at its left
  // edge: the empirical quantiles are exactly recoverable by the
  // uniform-within-bin assumption.
  MetricsRegistry reg;  // snapshot via the registry, like svc gates do
  Histogram& rh = reg.histogram("q", 0.0, 100.0, 10);
  for (int i = 0; i < 10; ++i) rh.record(static_cast<double>(i) * 10.0);
  const HistogramSnapshot s = reg.snapshot().histograms.at("q");

  // rank(q) = q * 9; each bin holds one sample, so quantile q lands in
  // bin floor(rank) at fraction frac(rank).
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 0.5), 45.0);
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 1.0), 90.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, -0.5), snapshot_quantile(s, 0.0));
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 1.5), snapshot_quantile(s, 1.0));
}

TEST(SnapshotQuantile, EdgeBucketsClampToHistogramRange) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("edges", 10.0, 20.0, 4);
  h.record(-5.0);  // underflow
  h.record(12.0);
  h.record(99.0);  // overflow
  const HistogramSnapshot s = reg.snapshot().histograms.at("edges");
  // Underflow samples report lo; tail quantiles landing in the overflow
  // bucket report hi. A gate whose histogram tops out below its SLO
  // threshold therefore FAILS (reports hi) instead of silently passing.
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(snapshot_quantile(s, 1.0), 20.0);
}

TEST(SnapshotQuantile, EmptyAndNanOnlyHistogramsReturnNaN) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("empty", 0.0, 1.0, 2);
  EXPECT_TRUE(std::isnan(snapshot_quantile(
      reg.snapshot().histograms.at("empty"), 0.5)));
  h.record(std::numeric_limits<double>::quiet_NaN());
  const HistogramSnapshot s = reg.snapshot().histograms.at("empty");
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_TRUE(std::isnan(snapshot_quantile(s, 0.5)));  // NaNs excluded
}

TEST(MetricsRegistry, FindOrCreateReturnsStableRefs) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  Histogram& h1 = reg.histogram("h", 0.0, 1.0, 4);
  Histogram& h2 = reg.histogram("h", 5.0, 9.0, 99);  // params ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.hi(), 1.0);
}

TEST(MetricsRegistry, SnapshotCapturesEverything) {
  MetricsRegistry reg;
  reg.set_info("run", "unit-test");
  reg.counter("events").add(7);
  reg.gauge("depth").set(4.0);
  reg.histogram("lat", 0.0, 10.0, 2).record(3.0);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.info.at("run"), "unit-test");
  EXPECT_EQ(s.counters.at("events"), 7u);
  EXPECT_DOUBLE_EQ(s.gauges.at("depth").value, 4.0);
  EXPECT_EQ(s.histograms.at("lat").bins.size(), 2u);
  EXPECT_EQ(s.histograms.at("lat").bins[0], 1u);
}

TEST(ScopedTimer, NullTargetIsDisarmed) {
  // Must not crash or record anything.
  ScopedTimer t1(static_cast<Gauge*>(nullptr));
  ScopedTimer t2(static_cast<Histogram*>(nullptr));
  ScopedTimer t3(nullptr, "ignored");
}

TEST(ScopedTimer, AccumulatesSecondsIntoGauge) {
  Gauge g;
  {
    ScopedTimer t(&g);
  }
  {
    ScopedTimer t(&g);
  }
  EXPECT_GE(g.value(), 0.0);
  // Two scopes both landed (value is the running sum, max saw both).
  EXPECT_GE(g.max(), g.value() * 0.5 - 1e-12);
}

TEST(ScopedTimer, SamplesMillisecondsIntoHistogram) {
  Histogram h(0.0, 1000.0, 10);
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.total(), 1u);
}

TEST(PhaseProfiler, AccumulatesPerPhaseGauges) {
  MetricsRegistry reg;
  {
    PhaseProfiler p(&reg, "driver");
    p.phase("setup");
    p.phase("run");
    p.phase("setup");  // revisits accumulate into the same gauge
  }
  const Snapshot s = reg.snapshot();
  EXPECT_TRUE(s.gauges.count("driver.phase.setup_s"));
  EXPECT_TRUE(s.gauges.count("driver.phase.run_s"));
  EXPECT_GE(s.gauges.at("driver.phase.setup_s").value, 0.0);
}

TEST(PhaseProfiler, NullRegistryIsNoop) {
  PhaseProfiler p(nullptr, "driver");
  p.phase("a");
  p.stop();
}

Snapshot awkward_snapshot() {
  // Values chosen to stress the exporter: non-terminating binary
  // fractions, tiny and huge magnitudes, negatives, escaped strings.
  Snapshot s;
  s.info["run id"] = "a \"quoted\"\nname\twith\\escapes";
  s.info["empty"] = "";
  s.counters["events"] = 18446744073709551615ull;  // max u64
  s.counters["zero"] = 0;
  GaugeSnapshot g;
  g.value = 1.0 / 3.0;
  g.max = 1e300;
  s.gauges["third"] = g;
  GaugeSnapshot neg;
  neg.value = -2.5e-17;
  neg.max = 0.1;
  s.gauges["tiny"] = neg;
  HistogramSnapshot h;
  h.lo = -1.5;
  h.hi = 2.5;
  h.bins = {0, 3, 17, 0};
  h.underflow = 2;
  h.overflow = 1;
  h.nan_count = 4;
  h.total = 27;
  h.sum = 0.30000000000000004;  // classic non-representable decimal
  h.min = -1.4;
  h.max = 2.499999999999999;
  s.histograms["latency"] = h;
  return s;
}

TEST(Json, DoubleMatchesPrintf17g) {
  // json_double must print exactly what printf("%.17g") prints: every
  // report, reply and checkpoint is compared byte for byte across
  // versions. 10^6 random bit patterns (every exponent, subnormals, NaN
  // payloads) plus the values where the notation or the digit count
  // changes.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      0.1, 0.30000000000000004, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.0, -1.0, 9.5,
      1e-5, 1e-4, 9.9999999999999991e-5, 1e15, 1e16, 1e17,
      99999999999999984.0, 123456789012345678.0, 1e22, 1e23, 5e-324,
      2451545.0, 2460735.5000000005, -140.25, 1e300, -2.5e-17};
  std::mt19937_64 bits(20261017);
  for (int i = 0; i < 1000000; ++i)
    values.push_back(std::bit_cast<double>(bits()));
  std::size_t mismatches = 0;
  std::string first;
  for (const double x : values) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", x);
    const std::string got = json_double(x);
    if (got != want && mismatches++ == 0)
      first = std::string(want) + " printed as " + got;
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;

  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{9},
        std::uint64_t{10}, std::uint64_t{4294967296},
        std::numeric_limits<std::uint64_t>::max(), bits(), bits()}) {
    char want[24];
    std::snprintf(want, sizeof want, "%" PRIu64, x);
    EXPECT_EQ(json_u64(x), want);
  }
}

TEST(RunReport, JsonRoundTripIsExact) {
  const Snapshot original = awkward_snapshot();
  const Snapshot reparsed = parse_json(to_json(original));
  EXPECT_EQ(original, reparsed);
}

TEST(RunReport, EmptySnapshotRoundTrips) {
  const Snapshot empty;
  EXPECT_EQ(empty, parse_json(to_json(empty)));
}

TEST(RunReport, NonFiniteGaugesRoundTrip) {
  // stats::summarize propagates NaN (undefined stddev for n < 2) and
  // +/-inf (empty min/max), so values that reach a gauge must survive
  // the JSON export unchanged instead of being flattened or rejected.
  Snapshot s;
  s.gauges["nan"] = {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::quiet_NaN()};
  s.gauges["pinf"] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
  s.gauges["ninf"] = {-std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()};
  const Snapshot reparsed = parse_json(to_json(s));
  EXPECT_TRUE(std::isnan(reparsed.gauges.at("nan").value));
  EXPECT_EQ(reparsed.gauges.at("pinf").value,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(reparsed.gauges.at("ninf").value,
            -std::numeric_limits<double>::infinity());
}

TEST(RunReport, JsonCarriesSchemaTag) {
  const std::string json = to_json(Snapshot{});
  EXPECT_NE(json.find(kRunReportSchema), std::string::npos);
}

TEST(RunReport, ParseRejectsGarbageAndWrongSchema) {
  EXPECT_THROW(parse_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_json("{}"), std::runtime_error);  // schema missing
  EXPECT_THROW(parse_json("{\"schema\": \"other.v9\"}"),
               std::runtime_error);
}

TEST(RunReport, CsvHasOneRowPerField) {
  const std::string csv = to_csv(awkward_snapshot());
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "kind,name,field,value");
  std::size_t counter_rows = 0;
  std::size_t bin_rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("counter,", 0) == 0) ++counter_rows;
    if (line.rfind("histogram,latency,bin", 0) == 0) ++bin_rows;
  }
  EXPECT_EQ(counter_rows, 2u);
  EXPECT_EQ(bin_rows, 4u);
}

TEST(RunReport, WriteJsonFileRoundTrips) {
  const Snapshot original = awkward_snapshot();
  const std::string path = ::testing::TempDir() + "sinet_obs_report.json";
  ASSERT_TRUE(write_json_file(path, original));
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(original, parse_json(buf.str()));
  std::remove(path.c_str());
}

TEST(ThreadPoolMetrics, ScopePublishesTaskCounters) {
  MetricsRegistry reg;
  sinet::sim::ThreadPool pool(2);
  {
    sinet::sim::ThreadPool::MetricsScope scope(pool, &reg);
    std::atomic<int> done{0};
    pool.parallel_for(16, [&](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 16);
  }
  EXPECT_GE(reg.counter("sim.thread_pool.tasks_run").value(), 16u);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.thread_pool.workers").value(), 2.0);
  const Snapshot s = reg.snapshot();
  EXPECT_TRUE(s.gauges.count("sim.thread_pool.worker0.busy_s"));
  EXPECT_TRUE(s.gauges.count("sim.thread_pool.worker1.utilization"));
  EXPECT_TRUE(s.gauges.count("sim.thread_pool.max_queue_depth"));
}

TEST(ThreadPoolMetrics, NullScopeIsFree) {
  sinet::sim::ThreadPool pool(1);
  const std::uint64_t before = pool.tasks_run();
  {
    sinet::sim::ThreadPool::MetricsScope scope(pool, nullptr);
    pool.parallel_for(4, [](std::size_t) {});
  }
  EXPECT_EQ(pool.tasks_run(), before + 4);
}

}  // namespace

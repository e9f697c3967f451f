// Run-metrics registry for the simulation core.
//
// The source paper is a measurement study; this is the reproduction's own
// instrumentation: named counters, gauges and fixed-bin histograms that
// the hot layers (DtS engine, thread pool, pass prediction, campaign
// drivers) write into while a run executes, and that a RunReport exporter
// (run_report.h) serializes afterwards.
//
// Design constraints, in order:
//  - Near-zero cost when disabled. Components hold a MetricsRegistry*
//    that defaults to nullptr; a null registry means no clock reads, no
//    atomic traffic, no allocation on the hot path.
//  - Usable from pool workers. Every metric type is individually
//    thread-safe (relaxed atomics; metrics never synchronize data), so
//    instrumented code needs no extra locking.
//  - Stable addresses. counter()/gauge()/histogram() hand out references
//    that stay valid for the registry's lifetime, so hot paths can
//    resolve a metric once and keep the pointer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sinet::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value metric that also remembers its high-water mark.
class Gauge {
 public:
  /// Set the current value (folds it into the maximum).
  void set(double x) noexcept;
  /// Accumulate into the current value (e.g. busy seconds across scopes).
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Highest value ever set/accumulated; value() if never updated.
  [[nodiscard]] double max() const noexcept;

 private:
  void fold_max(double x) noexcept;

  std::atomic<double> value_{0.0};
  std::atomic<bool> has_max_{false};
  std::atomic<double> max_{0.0};
};

/// Equal-width fixed-bin histogram over [lo, hi) with atomic buckets.
/// Samples below lo / at-or-above hi / NaN go to dedicated buckets, so
/// add() is total: every sample is accounted for somewhere.
class Histogram {
 public:
  /// Throws std::invalid_argument unless hi > lo and bins > 0.
  Histogram(double lo, double hi, std::size_t bins);

  void record(double x) noexcept;

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return bins_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const noexcept;
  [[nodiscard]] std::uint64_t overflow() const noexcept;
  [[nodiscard]] std::uint64_t nan_count() const noexcept;
  /// Total samples recorded, including under/overflow and NaN.
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Sum of all finite samples (NaN excluded).
  [[nodiscard]] double sum() const noexcept;
  /// Smallest/largest finite sample; 0 when no finite sample recorded.
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> bins_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> nan_{0};
  std::atomic<std::uint64_t> finite_count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Immutable copy of one gauge, suitable for export and comparison.
struct GaugeSnapshot {
  double value = 0.0;
  double max = 0.0;
  friend bool operator==(const GaugeSnapshot&, const GaugeSnapshot&) = default;
};

/// Immutable copy of one histogram.
struct HistogramSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> bins;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t nan_count = 0;
  std::uint64_t total = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Point-in-time copy of a whole registry (plus free-form run metadata).
/// This is the unit the RunReport exporter serializes and parses back.
struct Snapshot {
  std::map<std::string, std::string> info;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Thread-safe name -> metric registry.
///
/// Lookup takes a mutex; hot paths should resolve their metrics once and
/// hold the returned reference (stable for the registry's lifetime).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The reference stays valid until the
  /// registry is destroyed.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// Find-or-create; (lo, hi, bins) apply only on creation — a second
  /// call with the same name returns the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name, double lo,
                                     double hi, std::size_t bins);

  /// Free-form run metadata carried into the exported report.
  void set_info(const std::string& key, const std::string& value);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> info_;
};

/// Quantile estimate from a fixed-bin histogram snapshot, for SLO
/// reporting (p50/p99 of svc.* latency histograms). Finite samples are
/// assumed uniform within their bin (linear interpolation); underflow
/// samples count at `lo` and overflow samples at `hi`, so a gate's
/// histogram must place `hi` at or above the SLO threshold — a tail
/// quantile landing in the overflow bucket then reports `hi` and fails
/// every gate at or below it instead of silently passing. NaN samples
/// are excluded. `q` is clamped to [0, 1]. Returns NaN when the
/// snapshot holds no non-NaN samples.
[[nodiscard]] double snapshot_quantile(const HistogramSnapshot& h, double q);

/// Peak resident-set size of this process in bytes (VmHWM on Linux),
/// 0 where the platform offers no cheap equivalent. Used by the
/// population-scale DtS gauges to prove a run's memory stayed bounded.
[[nodiscard]] std::size_t process_peak_rss_bytes();

}  // namespace sinet::obs

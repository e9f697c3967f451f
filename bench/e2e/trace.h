// Bench-side span recorder for the traced runs of sinet_bench_e2e.
//
// Spans are recorded around the public library calls a workload makes
// (the library itself is not instrumented here), kept in memory, and
// written once at the end as Chrome trace-event JSON ("X" complete
// events), viewable offline in chrome://tracing or Perfetto. A disabled
// tracer — every untraced run — records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sinet::bench_e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  /// One numeric annotation on a span ("args" in the trace viewer).
  using Arg = std::pair<std::string, double>;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span. `tid` groups spans into viewer rows (the
  /// serve client uses one row per connection). Thread-safe.
  void add(const std::string& name, const std::string& category,
           Clock::time_point start, Clock::time_point end, int tid = 0,
           std::vector<Arg> args = {});

  /// RAII span: records [construction, destruction) on the main row.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::string category)
        : tracer_(tracer), name_(std::move(name)),
          category_(std::move(category)) {
      if (tracer_.enabled()) start_ = Clock::now();
    }
    ~Span() {
      if (tracer_.enabled())
        tracer_.add(name_, category_, start_, Clock::now(), 0,
                    std::move(args_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(const std::string& key, double value) {
      if (tracer_.enabled()) args_.emplace_back(key, value);
    }

   private:
    Tracer& tracer_;
    std::string name_;
    std::string category_;
    Clock::time_point start_{};
    std::vector<Arg> args_;
  };

  /// Write every recorded span as a Chrome trace-event JSON document.
  /// Returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    Clock::time_point start;
    Clock::time_point end;
    int tid = 0;
    std::vector<Arg> args;
  };

  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;  // guarded by mutex_
};

}  // namespace sinet::bench_e2e

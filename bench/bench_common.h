// Shared helpers for the reproduction programs: each program prints one
// paper table, figure or ablation (paper vs. measured) to stdout. Timing
// lives in bench/e2e, not here.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/report.h"

namespace sinet::bench {

/// Flags every reproduction program honors, so figure runs are
/// reproducible and resizable without editing constants:
///   --seed=N     root seed for replicate sweeps (default 42)
///   --days=X     campaign duration override; 0 keeps each figure's default
///   --threads=N  sweep fan-out (0 = shared pool, 1 = serial)
struct BenchFlags {
  std::uint64_t seed = 42;
  double days = 0.0;
  unsigned threads = 0;
};

inline BenchFlags& flags() {
  static BenchFlags f;
  return f;
}

/// The figure's duration default unless the user passed --days.
inline double days_or(double fallback) {
  return flags().days > 0.0 ? flags().days : fallback;
}

/// Parse the whole of `text` into `value`; false on anything left over.
template <typename T>
bool parse_full(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// Read --seed/--days/--threads into flags(). Any other argument, or a
/// malformed, negative or non-finite value, prints a message and returns
/// false, so a typo never runs a reproduction on the defaults (and a
/// negative count never becomes 4,294,967,295 threads).
inline bool parse_flags(int argc, char** argv) {
  BenchFlags& f = flags();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const std::string value(eq == arg.npos ? "" : arg.substr(eq + 1));
    const char* expected = "a non-negative integer";
    bool ok = false;
    if (name == "--seed") {
      ok = parse_full(value, f.seed);
    } else if (name == "--days") {
      expected = "a non-negative finite number";
      ok = parse_full(value, f.days) && std::isfinite(f.days) &&
           f.days >= 0.0;
    } else if (name == "--threads") {
      int threads = -1;
      ok = parse_full(value, threads) && threads >= 0;
      if (ok) f.threads = static_cast<unsigned>(threads);
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s'\n"
                   "usage: %s [--seed=N] [--days=X] [--threads=N]\n",
                   argv[i], argv[0]);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "error: %s: expected %s, got '%s'\n",
                   name.c_str(), expected, value.c_str());
      return false;
    }
  }
  return true;
}

/// Print the experiment banner used by every reproduction program.
inline void banner(const std::string& exp_id, const std::string& title) {
  std::printf("%s\n",
              sinet::core::experiment_banner(exp_id, title).c_str());
}

/// Print one paper-vs-measured line.
inline void pvm(const std::string& metric, const std::string& paper,
                const std::string& measured) {
  std::printf("%s\n",
              sinet::core::paper_vs_measured(metric, paper, measured).c_str());
}

/// Standard main: read the flags, then print the reproduction. Exits 2
/// without running it when an argument does not parse.
#define SINET_BENCH_MAIN(reproduce_fn)                        \
  int main(int argc, char** argv) {                           \
    if (!::sinet::bench::parse_flags(argc, argv)) return 2;   \
    reproduce_fn();                                           \
    return 0;                                                 \
  }

}  // namespace sinet::bench

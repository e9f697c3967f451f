// Speed gate for the random engine: times sim::Rng's own MT19937-64
// (sim/rng.h, whose refill the compiler vectorizes) against the
// std::mt19937_64 it replaced, raw draw for raw draw, in one process, and
// fails when it is not at least kMinRatio times faster.
//
// Before timing, 10^7 raw draws are checked bit for bit against
// std::mt19937_64 at the same seed. Each repeat times kDraws draws of
// each engine, alternating which goes first; the gate compares the best
// pass of each side, which filters out a noisy neighbour.
//
//   rng_speed_gate
//
// Prints rng_gate.* key=value lines; exit status 1 when a draw differs
// from std::mt19937_64 or the ratio is below kMinRatio. Not a ctest:
// timings do not belong in the tier-1 suite. Build it optimized (Release)
// before reading its numbers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>

#include "sim/rng.h"

namespace {

// The engine reads about 3x faster than std::mt19937_64 on a 4-vCPU Xeon
// (baseline x86-64 build), and about 1.0x with libstdc++'s
// `(y & 1) ? a : 0` select put back into its refill; 2x sits between
// with room for a noisy host.
constexpr double kMinRatio = 2.0;
// Timed passes per side; the best of each side is compared.
constexpr int kRepeats = 7;
constexpr long kDraws = 1L << 24;
constexpr long kCheckedDraws = 10'000'000;
constexpr std::uint64_t kSeed = 20261017;

template <typename Engine>
double seconds(Engine& engine, std::uint64_t* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0;
  for (long i = 0; i < kDraws; ++i) x ^= engine();
  const auto t1 = std::chrono::steady_clock::now();
  *sink += x;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  // Bit parity first: a fast wrong engine must not pass the gate.
  {
    sinet::sim::Rng rng(kSeed);
    std::mt19937_64 want(kSeed);
    long mismatches = 0;
    for (long i = 0; i < kCheckedDraws; ++i)
      mismatches += rng.next_u64() != want();
    std::printf("rng_gate.checked_draws=%ld\nrng_gate.mismatches=%ld\n",
                kCheckedDraws, mismatches);
    if (mismatches != 0) {
      std::fprintf(stderr, "rng_speed_gate: %ld draws differ from "
                           "std::mt19937_64\n", mismatches);
      return 1;
    }
  }

  sinet::sim::Rng rng(kSeed);
  auto engine = [&rng] { return rng.next_u64(); };
  std::mt19937_64 standard(kSeed);
  std::uint64_t sink = 0;
  double best_engine = 1e300, best_standard = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    if (r % 2 == 0) {
      best_engine = std::min(best_engine, seconds(engine, &sink));
      best_standard = std::min(best_standard, seconds(standard, &sink));
    } else {
      best_standard = std::min(best_standard, seconds(standard, &sink));
      best_engine = std::min(best_engine, seconds(engine, &sink));
    }
  }
  const double ratio = best_standard / best_engine;
  std::printf("rng_gate.draws=%ld\nrng_gate.engine_ns=%.3f\n"
              "rng_gate.std_ns=%.3f\nrng_gate.repeats=%d\n"
              "rng_gate.ratio=%.3f\nrng_gate.min_ratio=%.3f\n"
              "rng_gate.sink=%016llx\n",
              kDraws, best_engine * 1e9 / kDraws,
              best_standard * 1e9 / kDraws, kRepeats, ratio, kMinRatio,
              static_cast<unsigned long long>(sink));
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "rng_speed_gate: ratio %.3f below %.3f\n", ratio,
                 kMinRatio);
    return 1;
  }
  std::printf("rng_gate.ok=1\n");
  return 0;
}

// Seeded random number streams for reproducible simulation.
//
// Every stochastic component (channel fading, packet jitter, weather, ...)
// draws from its own named stream so that adding a component never
// perturbs the draws of another — runs stay comparable across versions.
//
// Cross-platform determinism: every distribution below is an explicit
// algorithm over the raw (fully specified) MT19937-64 output — no
// std::*_distribution, whose sequences are implementation-defined and
// differ between standard libraries. This is what lets a sweep manifest
// written on one toolchain resume on another (see exp/sweep_runner.h);
// test_sim.cpp pins golden values for each helper.
//
// The engine is this file's own Mt19937_64 rather than std::mt19937_64:
// the same seeding, recurrence and tempering, so the same sequence for
// every seed (test_sim.cpp checks it against the standard library's), but
// a refill written so that the compiler vectorizes it at the baseline
// ISA. DtS beacon decodes seed a fresh stream per slot and refill it at
// once, so the refill is a hot path (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sinet::sim {

/// The draw-independent part of a Rician amplitude at one K-factor: the
/// line-of-sight amplitude and the per-axis sigma of the scattered
/// component (mean power 1).
struct RicianParams {
  double los = 0.0;
  double sigma = 0.0;
};

/// Rician parameters of K-factor `k_factor_db`.
[[nodiscard]] RicianParams rician_params(double k_factor_db);

/// MT19937-64 (Matsumoto and Nishimura): the sequence of
/// std::mt19937_64 for every seed. The state is refilled 312 words at a
/// time and each word is tempered as it is drawn, so the engine is no
/// larger than the standard library's.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed);

  std::uint64_t operator()() {
    if (next_ == kWords) refill();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kWords = 312;
  void refill();

  std::uint64_t state_[kWords];
  std::size_t next_ = kWords;
};

/// One random stream. Thin, value-semantic wrapper over a 64-bit engine
/// with the distribution helpers the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Raw 64-bit engine draw (the primitive every helper is built on).
  std::uint64_t next_u64() { return engine_(); }
  /// Uniform in [0, 1), 53-bit resolution: (next_u64() >> 11) * 2^-53.
  double uniform();
  /// Uniform in [lo, hi). Requires finite bounds with hi >= lo.
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive (unbiased rejection sampling
  /// over raw draws).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal (mean 0, stddev 1) by inverse-transform sampling
  /// (Wichura's AS241 PPND16 inverse CDF); one uniform per draw.
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Exponential with given mean (>0).
  double exponential(double mean);
  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);
  /// Rician fading amplitude with K-factor (dB) and mean power 1.
  double rician_amplitude(double k_factor_db) {
    return rician_amplitude(rician_params(k_factor_db));
  }
  /// Rician fading amplitude from prepared parameters: two normals.
  double rician_amplitude(const RicianParams& p);

 private:
  Mt19937_64 engine_;
};

/// Derive a child seed from a root seed and a component name (FNV-1a).
/// Deterministic across platforms.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root,
                                        std::string_view component);

/// Derive the `counter`-th child seed of `base` — the counter-based
/// (numeric) sibling of derive_seed for hot paths that would otherwise
/// format a string per draw (e.g. "node/<i>/event/<k>"). Splitmix64-style
/// avalanche over (base, counter): consecutive counters yield unrelated
/// seeds, so a per-entity stream family can be opened at any index in
/// O(1) with no shared state. Deterministic across platforms; golden
/// values pinned in test_sim.cpp.
[[nodiscard]] std::uint64_t derive_stream(std::uint64_t base,
                                          std::uint64_t counter);

/// Factory producing independent named streams from one root seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t root_seed) : root_(root_seed) {}
  [[nodiscard]] Rng make(std::string_view component) const {
    return Rng(derive_seed(root_, component));
  }
  [[nodiscard]] std::uint64_t root_seed() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace sinet::sim

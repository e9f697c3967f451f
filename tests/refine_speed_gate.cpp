// Speed gate for AOS/LOS/TCA refinement: times the library primitives
// (orbit::refine_mask_crossing / refine_max_elevation, SIMD lanes with
// scalar-certified decisions) against the scalar oracle they replace
// (refine_oracle.h) on the same brackets, in one process, and fails when
// the primitives are not at least kMinRatio times faster.
//
// The brackets are every window of a 39-satellite x 8-site, 2-day
// contact plan at 30 s steps: the AOS and LOS grid brackets and the
// [AOS, LOS] span of the peak search, as the scan refines them. Each
// repeat times one pass of each side over all of them, alternating which
// side goes first; the gate compares the best pass of each side, which
// filters out a noisy neighbour. Before timing, every result is checked
// bit for bit against the oracle.
//
//   refine_speed_gate
//
// Prints refine_gate.* key=value lines; exit status 1 when a result
// differs from the oracle, when the kernel has no AVX2 clone to run on
// this host, or when the ratio is below kMinRatio. Not a ctest: timings
// do not belong in the tier-1 suite. Build it optimized (Release) before
// reading its numbers.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/simd.h"
#include "refine_oracle.h"

namespace {

using sinet::orbit::JulianDate;

// The primitives read 2.1x (AVX2 clone) to 2.9x (AVX-512 clone) faster
// than the oracle on a 4-vCPU Xeon, and 0.74x with every comparison
// forced onto the scalar path; 1.3x sits between with room for a noisy
// host. With the baseline x86-64 clone alone they read 1.2x, which is
// why the gate insists on an AVX2 clone rather than report that ratio.
constexpr double kMinRatio = 1.3;
// Timed passes per side; the best of each side is compared.
constexpr int kRepeats = 7;

// Whether the loader picks an AVX2 or wider kernel clone (orbit/simd.h):
// the build must carry the clones and the CPU must run them.
bool avx2_clone() {
#if defined(SINET_SIMD_HAS_AVX_CLONES)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

struct Bracket {
  std::size_t pair;  // index into the samplers
  bool crossing;     // AOS/LOS bisection, else the peak search
  JulianDate lo, hi;
};

struct Plan {
  std::vector<sinet::orbit::Sgp4> props;
  std::vector<sinet::orbit::ElevationSampler> samplers;
  std::vector<Bracket> brackets;
  double mask_deg = 0.0;
  double tol_s = 0.0;
};

Plan build_plan() {
  namespace orbit = sinet::orbit;
  Plan plan;
  const JulianDate start = sinet::core::campaign_epoch_jd();
  const JulianDate end = start + 2.0;
  for (const orbit::ConstellationSpec& spec : orbit::paper_constellations())
    for (const orbit::Tle& tle : orbit::generate_tles(spec, start))
      plan.props.emplace_back(tle);
  std::vector<const orbit::Sgp4*> sats;
  for (const orbit::Sgp4& p : plan.props) sats.push_back(&p);
  std::vector<orbit::GridObserver> observers;
  for (const sinet::core::MeasurementSite& site :
       sinet::core::paper_measurement_sites())
    observers.push_back(orbit::GridObserver{site.location});

  orbit::PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;
  plan.mask_deg = opts.min_elevation_deg;
  plan.tol_s = opts.refine_tolerance_s;
  const auto windows =
      orbit::predict_passes_grid(sats, observers, start, end, opts, 0);
  const orbit::ScanGrid grid(start, end, opts.coarse_step_s);
  for (std::size_t s = 0; s < sats.size(); ++s) {
    for (std::size_t o = 0; o < observers.size(); ++o) {
      const std::size_t pair = plan.samplers.size();
      plan.samplers.emplace_back(*sats[s], observers[o].location);
      for (const orbit::ContactWindow& w : windows[s][o]) {
        for (const JulianDate edge : {w.aos_jd, w.los_jd}) {
          const auto b = sinet::testing::scan_crossing_bracket(grid, edge);
          if (!b) continue;  // truncated, not refined
          plan.brackets.push_back({pair, true, b->first, b->second});
        }
        plan.brackets.push_back({pair, false, w.aos_jd, w.los_jd});
      }
    }
  }
  return plan;
}

// One pass over every bracket; the XOR of the result bits keeps the
// calls from being optimized away.
template <typename Crossing, typename Peak>
std::uint64_t refine_all(const Plan& plan, Crossing crossing, Peak peak) {
  std::uint64_t sink = 0;
  for (const Bracket& b : plan.brackets) {
    const auto& sampler = plan.samplers[b.pair];
    if (b.crossing) {
      sink ^= std::bit_cast<std::uint64_t>(
          crossing(sampler, b.lo, b.hi, plan.mask_deg, plan.tol_s));
    } else {
      const auto [t, el] = peak(sampler, b.lo, b.hi);
      sink ^= std::bit_cast<std::uint64_t>(t) ^
              std::bit_cast<std::uint64_t>(el);
    }
  }
  return sink;
}

std::uint64_t library_pass(const Plan& plan) {
  return refine_all(plan, &sinet::orbit::refine_mask_crossing,
                    &sinet::orbit::refine_max_elevation);
}

std::uint64_t oracle_pass(const Plan& plan) {
  return refine_all(plan, &sinet::testing::oracle_refine_mask_crossing,
                    &sinet::testing::oracle_refine_max_elevation);
}

double seconds(std::uint64_t (*pass)(const Plan&), const Plan& plan,
               std::uint64_t* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  *sink += pass(plan);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const bool avx2 = avx2_clone();
  std::printf("refine_gate.avx2_clone=%d\n", avx2 ? 1 : 0);
  const Plan plan = build_plan();
  std::size_t crossings = 0;
  for (const Bracket& b : plan.brackets) crossings += b.crossing;
  std::printf("refine_gate.brackets=%zu\nrefine_gate.crossings=%zu\n",
              plan.brackets.size(), crossings);

  // Bit parity first: a fast wrong answer must not pass the gate.
  std::size_t mismatches = 0;
  for (const Bracket& b : plan.brackets) {
    const auto& s = plan.samplers[b.pair];
    if (b.crossing) {
      const double got = sinet::orbit::refine_mask_crossing(
          s, b.lo, b.hi, plan.mask_deg, plan.tol_s);
      const double want = sinet::testing::oracle_refine_mask_crossing(
          s, b.lo, b.hi, plan.mask_deg, plan.tol_s);
      mismatches += std::memcmp(&got, &want, sizeof got) != 0;
    } else {
      const auto got = sinet::orbit::refine_max_elevation(s, b.lo, b.hi);
      const auto want =
          sinet::testing::oracle_refine_max_elevation(s, b.lo, b.hi);
      mismatches += std::memcmp(&got, &want, sizeof got) != 0;
    }
  }
  std::printf("refine_gate.mismatches=%zu\n", mismatches);
  if (mismatches != 0) {
    std::fprintf(stderr, "refine_speed_gate: %zu results differ from the "
                         "scalar oracle\n", mismatches);
    return 1;
  }
  if (!avx2) {
    std::fprintf(stderr,
                 "refine_speed_gate: no AVX2 kernel clone runs here (an "
                 "x86-64 GCC build and an AVX2 CPU are needed); the %.1fx "
                 "bound assumes one, so nothing was timed\n",
                 kMinRatio);
    return 1;
  }

  std::uint64_t sink = 0;
  double best_library = 1e300, best_oracle = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    if (r % 2 == 0) {
      best_library = std::min(best_library, seconds(library_pass, plan, &sink));
      best_oracle = std::min(best_oracle, seconds(oracle_pass, plan, &sink));
    } else {
      best_oracle = std::min(best_oracle, seconds(oracle_pass, plan, &sink));
      best_library = std::min(best_library, seconds(library_pass, plan, &sink));
    }
  }
  const double ratio = best_oracle / best_library;
  std::printf("refine_gate.library_best_s=%.6f\n"
              "refine_gate.oracle_best_s=%.6f\n"
              "refine_gate.repeats=%d\nrefine_gate.ratio=%.3f\n"
              "refine_gate.min_ratio=%.3f\nrefine_gate.sink=%016llx\n",
              best_library, best_oracle, kRepeats, ratio, kMinRatio,
              static_cast<unsigned long long>(sink));
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "refine_speed_gate: ratio %.3f below %.3f\n", ratio,
                 kMinRatio);
    return 1;
  }
  std::printf("refine_gate.ok=1\n");
  return 0;
}

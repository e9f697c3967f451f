// Speed gate for the fade bound: times channel::FadingModel::fade_bound_db
// (quantile brackets and a table bound on the log10, no libm call) against
// a verbatim copy of the form it replaced (the same brackets and one
// std::log10), in one process, and fails when it is not at least kMinRatio
// times faster.
//
// Before timing, the bound is checked over 10^7 fixed uniforms and fading
// parameters: it must never fall below the old form, or a decode the old
// bound left to the exact path could be settled, and must stay within
// kSlackDb of it. Each repeat times both forms over the same inputs,
// alternating which goes first; the gate compares the best pass of each
// side, which filters out a noisy neighbour.
//
//   decode_speed_gate
//
// Prints decode_gate.* key=value lines; exit status 1 when the bound falls
// below the old form or beyond its slack, or the ratio is below kMinRatio.
// Not a ctest: timings do not belong in the tier-1 suite. Build it
// optimized (Release) before reading its numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "channel/fading.h"
#include "channel/weather.h"
#include "sim/rng.h"

namespace {

using sinet::channel::FadeParams;
using sinet::channel::FadeUniforms;
using sinet::channel::FadingModel;

// The table bound ran about 1.9x faster than the log10 form on a 4-vCPU
// Xeon (GCC 12.2, glibc 2.36), with both forms' static guards paid per
// call; 1.3x sits between that and the 1.0x of the log10 form put back.
constexpr double kMinRatio = 1.3;
// The table's bucket width, 10 log10(1 + 2^-10) = 0.0043 dB, plus its
// padding and the rounding of both forms.
constexpr double kSlackDb = 0.005;
// Timed passes per side; the best of each side is compared.
constexpr int kRepeats = 7;
constexpr std::size_t kInputs = std::size_t{1} << 16;
constexpr int kSweeps = 64;  // timed calls per pass: kInputs * kSweeps
constexpr long kChecked = 10'000'000;
constexpr std::uint64_t kSeed = 20261019;

/// FadingModel::fade_bound_db as it was before the table bound, verbatim
/// but for its name. Not inlined: the library's bound is an out-of-line
/// call too.
[[gnu::noinline]] double log10_bound_db(const FadeParams& p,
                                        const FadeUniforms& u) {
  const auto brackets = sinet::sim::normal_quantile_brackets();
  const sinet::sim::QuantileBracket zs =
      brackets[sinet::sim::quantile_bucket(u.shadowing)];
  const sinet::sim::QuantileBracket zx =
      brackets[sinet::sim::quantile_bucket(u.x)];
  const sinet::sim::QuantileBracket zy =
      brackets[sinet::sim::quantile_bucket(u.y)];
  const double shadowing_hi = p.shadowing_sigma_db * zs.hi;
  const double x_hi = std::max(std::abs(p.rician.los + p.rician.sigma * zx.lo),
                               std::abs(p.rician.los + p.rician.sigma * zx.hi));
  const double y_hi = std::abs(p.rician.sigma) * std::max(-zy.lo, zy.hi);
  const double power_hi = x_hi * x_hi + y_hi * y_hi;
  return shadowing_hi + 10.0 * std::log10(std::max(power_hi, 1e-12));
}

/// Fading parameters over the elevations and weathers the engines see:
/// the K-factor's knee and both ends, sunny to rain.
std::vector<FadeParams> fading_params() {
  const FadingModel model;
  std::vector<FadeParams> params;
  for (const double elevation : {0.0, 5.0, 10.0, 15.0, 20.0, 45.0, 90.0})
    for (const auto weather :
         {sinet::channel::Weather::kSunny, sinet::channel::Weather::kCloudy,
          sinet::channel::Weather::kRainy})
      params.push_back(model.prepare(elevation, weather));
  return params;
}

template <typename Bound>
double seconds(Bound bound, const std::vector<FadeParams>& params,
               const std::vector<FadeUniforms>& uniforms, double* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  double x = 0.0;
  for (int sweep = 0; sweep < kSweeps; ++sweep)
    for (std::size_t i = 0; i < uniforms.size(); ++i)
      x += bound(params[i % params.size()], uniforms[i]);
  const auto t1 = std::chrono::steady_clock::now();
  *sink += x;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const std::vector<FadeParams> params = fading_params();

  // The bound first: a fast bound below the old one must not pass.
  {
    sinet::sim::Rng rng(kSeed);
    long below = 0, loose = 0;
    double worst_slack = 0.0;
    for (long i = 0; i < kChecked; ++i) {
      const FadeParams& p = params[static_cast<std::size_t>(i) % params.size()];
      const FadeUniforms u = FadingModel::draw_uniforms(rng);
      const double bound = FadingModel::fade_bound_db(p, u);
      const double old = log10_bound_db(p, u);
      below += !(bound >= old);
      loose += !(bound <= old + kSlackDb);
      worst_slack = std::max(worst_slack, bound - old);
    }
    std::printf("decode_gate.checked=%ld\ndecode_gate.below=%ld\n"
                "decode_gate.loose=%ld\ndecode_gate.worst_slack_db=%.6f\n",
                kChecked, below, loose, worst_slack);
    if (below != 0 || loose != 0) {
      std::fprintf(stderr, "decode_speed_gate: %ld bounds below the log10 "
                           "form, %ld beyond %.4f dB above it\n",
                   below, loose, kSlackDb);
      return 1;
    }
  }

  std::vector<FadeUniforms> uniforms(kInputs);
  sinet::sim::Rng rng(kSeed + 1);
  for (FadeUniforms& u : uniforms) u = FadingModel::draw_uniforms(rng);
  const auto table = [](const FadeParams& p, const FadeUniforms& u) {
    return FadingModel::fade_bound_db(p, u);
  };
  double sink = 0.0;
  double best_table = 1e300, best_log10 = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    if (r % 2 == 0) {
      best_table = std::min(best_table, seconds(table, params, uniforms, &sink));
      best_log10 =
          std::min(best_log10, seconds(log10_bound_db, params, uniforms, &sink));
    } else {
      best_log10 =
          std::min(best_log10, seconds(log10_bound_db, params, uniforms, &sink));
      best_table = std::min(best_table, seconds(table, params, uniforms, &sink));
    }
  }
  const double calls = static_cast<double>(kInputs) * kSweeps;
  const double ratio = best_log10 / best_table;
  std::printf("decode_gate.calls=%.0f\ndecode_gate.table_ns=%.3f\n"
              "decode_gate.log10_ns=%.3f\ndecode_gate.repeats=%d\n"
              "decode_gate.ratio=%.3f\ndecode_gate.min_ratio=%.3f\n"
              "decode_gate.sink=%a\n",
              calls, best_table * 1e9 / calls, best_log10 * 1e9 / calls,
              kRepeats, ratio, kMinRatio, sink);
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "decode_speed_gate: ratio %.3f below %.3f\n", ratio,
                 kMinRatio);
    return 1;
  }
  std::printf("decode_gate.ok=1\n");
  return 0;
}

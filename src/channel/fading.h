// Stochastic link variation: log-normal shadowing plus Rician small-scale
// fading for the (mostly line-of-sight) ground-space channel.
#pragma once

#include "channel/weather.h"
#include "sim/rng.h"

namespace sinet::channel {

struct FadingConfig {
  double shadowing_sigma_db = 2.5;  ///< clear-sky log-normal sigma
  double rician_k_db = 10.0;        ///< strong LoS for elevated satellites
  /// Below this elevation the K-factor degrades linearly toward
  /// `low_elevation_k_db` at the horizon (multipath from terrain).
  double k_rolloff_elevation_deg = 20.0;
  double low_elevation_k_db = 3.0;
};

/// The draw-independent part of one fading realization, fixed by the
/// elevation and the weather: the shadowing sigma and the Rician
/// parameters of the elevation's K-factor.
struct FadeParams {
  double shadowing_sigma_db = 0.0;
  sinet::sim::RicianParams rician;
};

/// The three uniforms of one fading realization, in draw order: the
/// shadowing normal's, then the Rician x and y normals'
/// (sim::Rng::normal_uniform each).
struct FadeUniforms {
  double shadowing = 0.5;
  double x = 0.5;
  double y = 0.5;
};

/// Draws per-packet fading realizations. The object holds configuration
/// only; the RNG stream is passed per call so that callers control
/// reproducibility.
class FadingModel {
 public:
  explicit FadingModel(const FadingConfig& cfg = {});

  /// Total random link-variation term (dB, signed; negative = deeper fade)
  /// for a packet received at `elevation_deg` under weather `w`.
  [[nodiscard]] double draw_db(sinet::sim::Rng& rng, double elevation_deg,
                               Weather w) const {
    return draw_db(prepare(elevation_deg, w), rng);
  }

  /// Fading parameters at an elevation and weather.
  [[nodiscard]] FadeParams prepare(double elevation_deg, Weather w) const;

  /// One realization from prepared parameters: three normals, a sqrt
  /// and a log10. Same draws and value as draw_db(rng, elevation, w).
  [[nodiscard]] static double draw_db(const FadeParams& p,
                                      sinet::sim::Rng& rng) {
    return fade_db(p, draw_uniforms(rng));
  }

  /// The uniforms of one realization, drawn as draw_db draws them.
  [[nodiscard]] static FadeUniforms draw_uniforms(sinet::sim::Rng& rng) {
    return {rng.normal_uniform(), rng.normal_uniform(),
            rng.normal_uniform()};
  }

  /// The realization of uniforms `u` (dB): shadowing plus small-scale
  /// fade, from the three normal quantiles.
  [[nodiscard]] static double fade_db(const FadeParams& p,
                                      const FadeUniforms& u);

  /// An upper bound on fade_db(p, u) from the quantile brackets of u's
  /// buckets (sim::normal_quantile_brackets) instead of the quantiles,
  /// and from power_db_upper_bound instead of a log10: no libm call. For
  /// 0 <= shadowing_sigma_db <= 100, fade_db(p, u) exceeds it by less
  /// than 1e-12 dB, the rounding of the sqrt and the log10s, and it lies
  /// at most 0.0043 dB above the bound a log10 would give
  /// (docs/PERFORMANCE.md, "The decode certificate"); NaN parameters give
  /// NaN. `power_slack` (>= 0) is added to the bound's small-scale power
  /// before its dB: the campaign's kernel geometry pads it for a Rician
  /// K-factor known only to within a tolerance (core/beacon_kernel.h).
  [[nodiscard]] static double fade_bound_db(const FadeParams& p,
                                            const FadeUniforms& u,
                                            double power_slack = 0.0);

  /// Effective Rician K-factor (dB) at an elevation.
  [[nodiscard]] double k_factor_db(double elevation_deg) const noexcept;

  [[nodiscard]] const FadingConfig& config() const noexcept { return cfg_; }

 private:
  FadingConfig cfg_;
};

/// An upper bound on 10 log10(power) for a normal (>= 2^-1022) finite
/// `power`, from its bit pattern and no libm call: the binary exponent
/// times 10 log10 2, plus 10 log10 of the top of the mantissa's bucket
/// (1,024 buckets, the top 10 mantissa bits), padded up by 1e-9 dB. It
/// lies above the exact value by at most 10 log10(1 + 2^-10) + 1e-9 dB
/// (0.0043 dB), and above std::log10's rounding of it. +infinity and NaN
/// give 10 log10(power). Zero, negative and subnormal powers are outside
/// its domain.
[[nodiscard]] double power_db_upper_bound(double power);

}  // namespace sinet::channel

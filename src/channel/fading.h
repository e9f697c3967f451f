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
                                      sinet::sim::Rng& rng);

  /// Effective Rician K-factor (dB) at an elevation.
  [[nodiscard]] double k_factor_db(double elevation_deg) const noexcept;

  [[nodiscard]] const FadingConfig& config() const noexcept { return cfg_; }

 private:
  FadingConfig cfg_;
};

}  // namespace sinet::channel

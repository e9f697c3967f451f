// Ground antenna gain patterns.
//
// The paper's Fig 5b compares 1/4-wave and 5/8-wave whips on Tianqi nodes.
// Both are vertical monopoles: the 5/8-wave has higher peak gain
// concentrated at low-to-mid elevation; the 1/4-wave is closer to
// omnidirectional with lower gain. Satellites carry simple dipoles.
#pragma once

namespace sinet::channel {

enum class AntennaType {
  kQuarterWaveMonopole,
  kFiveEighthsWaveMonopole,
  kDipole,              ///< tumbling nanosat beacon antenna
  kSatelliteTurnstile,  ///< nadir-pointing gateway receive antenna
  kIsotropic,           ///< reference (keep last: it bounds the types)
};

/// Gain (dBi) toward a target at `elevation_deg` above the local horizon.
/// Patterns are azimuth-symmetric.
[[nodiscard]] double antenna_gain_dbi(AntennaType type, double elevation_deg);

}  // namespace sinet::channel

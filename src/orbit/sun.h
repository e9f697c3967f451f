// Low-precision solar ephemeris and Earth-shadow (eclipse) test.
//
// Power-starved nanosats commonly disable their payload in eclipse; the
// paper lists "satellite resource constraints" among the suspected DtS
// loss causes (Appendix C / Sec 5). This module lets experiments gate
// beacon activity on sunlight.
#pragma once

#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

/// Unit vector from Earth's center toward the Sun in the TEME/mean-
/// equator frame at `jd` (low-precision ephemeris, good to ~0.01 deg —
/// far more than eclipse geometry needs).
[[nodiscard]] Vec3 sun_direction_teme(JulianDate jd);

/// True when a satellite at TEME position `r_sat_km` is inside Earth's
/// shadow (cylindrical umbra model).
[[nodiscard]] bool in_earth_shadow(const Vec3& r_sat_km, JulianDate jd);

}  // namespace sinet::orbit

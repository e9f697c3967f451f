// Oracle for orbit::RollingEphemeris::next_pass: the selection the
// service's next_pass handler made over full-horizon scans before the
// bounded search existed. Shared by test_ephemeris (query parity) and
// test_svc (reply bytes).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "orbit/ephemeris.h"
#include "orbit/passes.h"

namespace sinet::testing {

/// `windows[s]` is scan_satellite(s, ...) over the whole horizon: among
/// each satellite's first window whose LOS is after `after_jd`, the one
/// with the earliest AOS; ties go to the lowest satellite index.
inline orbit::RollingEphemeris::NextPass oracle_next_pass(
    const std::vector<std::vector<orbit::ContactWindow>>& windows,
    orbit::JulianDate after_jd) {
  orbit::RollingEphemeris::NextPass best;
  for (std::size_t s = 0; s < windows.size(); ++s) {
    for (const orbit::ContactWindow& w : windows[s]) {
      if (w.los_jd <= after_jd) continue;  // already over
      if (!best.found || w.aos_jd < best.window.aos_jd) {
        best.found = true;
        best.window = w;
        best.satellite = s;
      }
      break;  // windows are chronological per satellite
    }
  }
  return best;
}

/// Satellite index, found flag and the bit patterns of all four window
/// fields must match.
inline void expect_same_next_pass(
    const orbit::RollingEphemeris::NextPass& got,
    const orbit::RollingEphemeris::NextPass& want, const std::string& label) {
  ASSERT_EQ(got.found, want.found) << label;
  if (!want.found) return;
  EXPECT_EQ(got.satellite, want.satellite) << label;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(got.window.aos_jd), bits(want.window.aos_jd)) << label;
  EXPECT_EQ(bits(got.window.los_jd), bits(want.window.los_jd)) << label;
  EXPECT_EQ(bits(got.window.tca_jd), bits(want.window.tca_jd)) << label;
  EXPECT_EQ(bits(got.window.max_elevation_deg),
            bits(want.window.max_elevation_deg))
      << label;
}

}  // namespace sinet::testing

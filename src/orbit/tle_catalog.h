// TLE catalog files: read multi-satellite element files in the
// standard CelesTrak 3-line (name + 2 element lines) or bare 2-line
// format. Lets the framework consume real published TLEs instead of the
// synthetic Table 3 catalog.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "orbit/tle.h"

namespace sinet::orbit {

/// Parse every TLE in the stream. Accepts mixed 2-line and 3-line
/// entries, blank lines between entries, and trailing whitespace.
/// Throws std::invalid_argument (with a line number) on malformed
/// element lines; unpaired trailing lines are an error too.
[[nodiscard]] std::vector<Tle> read_tle_catalog(std::istream& is);

}  // namespace sinet::orbit

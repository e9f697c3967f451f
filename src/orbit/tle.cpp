#include "orbit/tle.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace sinet::orbit {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("TLE parse error: " + what);
}

std::string_view field(std::string_view line, std::size_t col_1based,
                       std::size_t len) {
  if (col_1based - 1 + len > line.size()) fail("line too short");
  return line.substr(col_1based - 1, len);
}

bool only_spaces(const char* p) {
  while (*p == ' ') ++p;
  return *p == '\0';
}

double parse_double(std::string_view s, const char* what) {
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  // Require at least one converted char and nothing but spaces after it.
  // strtod stops silently at the first bad char, so without the `end`
  // check a corrupted column like "12.3X567" parses as 12.3 and the
  // element is quietly wrong.
  if (end == buf.c_str() || !only_spaces(end))
    fail(std::string("bad number in ") + what);
  return v;
}

int parse_int(std::string_view s, const char* what) {
  std::string buf(s);
  // Leading spaces are common in TLE integer fields.
  char* end = nullptr;
  const long v = std::strtol(buf.c_str(), &end, 10);
  if (end == buf.c_str() || !only_spaces(end))
    fail(std::string("bad integer in ") + what);
  return static_cast<int>(v);
}

/// TLE "implied decimal point" notation, e.g. " 12345-4" == 0.12345e-4.
double parse_implied_exponent(std::string_view s, const char* what) {
  std::string buf;
  buf.reserve(s.size() + 2);
  std::size_t i = 0;
  while (i < s.size() && s[i] == ' ') ++i;
  bool neg = false;
  bool saw_sign = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = s[i] == '-';
    saw_sign = true;
    ++i;
  }
  buf = neg ? "-0." : "0.";
  bool saw_digit = false;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    buf += s[i];
    saw_digit = true;
    ++i;
  }
  if (!saw_digit) {
    // Only a genuinely blank field means zero. Returning 0.0 for any
    // unparsable content (the old behavior) silently zeroed corrupted
    // bstar/nddot columns instead of rejecting the TLE.
    if (only_spaces(std::string(s.substr(i)).c_str()) && !saw_sign)
      return 0.0;
    fail(std::string("bad field in ") + what);
  }
  int exponent = 0;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    const bool eneg = s[i] == '-';
    ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
      fail(std::string("bad exponent in ") + what);
    exponent = s[i] - '0';
    if (eneg) exponent = -exponent;
    ++i;
  }
  if (!only_spaces(std::string(s.substr(i)).c_str()))
    fail(std::string("trailing garbage in ") + what);
  return std::strtod(buf.c_str(), nullptr) * std::pow(10.0, exponent);
}

void check_line(std::string_view line, char expect_first, const char* what) {
  if (line.size() < 69) fail(std::string(what) + " shorter than 69 columns");
  if (line[0] != expect_first)
    fail(std::string(what) + " does not start with the expected line number");
  const int want = tle_checksum(line.substr(0, 68));
  const char cs = line[68];
  if (!std::isdigit(static_cast<unsigned char>(cs)))
    fail(std::string(what) + " checksum column is not a digit");
  if (cs - '0' != want)
    fail(std::string(what) + " checksum mismatch (expected " +
         std::to_string(want) + ")");
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

int tle_checksum(std::string_view line68) {
  int sum = 0;
  for (const char c : line68) {
    if (std::isdigit(static_cast<unsigned char>(c))) sum += c - '0';
    if (c == '-') sum += 1;
  }
  return sum % 10;
}

double Tle::period_minutes() const {
  if (mean_motion_rev_day <= 0.0)
    throw std::logic_error("Tle: nonpositive mean motion");
  return kMinutesPerDay / mean_motion_rev_day;
}

Tle parse_tle(std::string_view line1, std::string_view line2) {
  check_line(line1, '1', "line 1");
  check_line(line2, '2', "line 2");

  Tle t;
  t.catalog_number = parse_int(field(line1, 3, 5), "catalog number");
  t.classification = line1[7];
  t.intl_designator = trim(field(line1, 10, 8));
  const int epoch_yy = parse_int(field(line1, 19, 2), "epoch year");
  const double epoch_doy = parse_double(field(line1, 21, 12), "epoch day");
  t.epoch_jd = julian_from_tle_epoch(epoch_yy, epoch_doy);
  t.mean_motion_dot = parse_double(field(line1, 34, 10), "ndot");
  t.mean_motion_ddot = parse_implied_exponent(field(line1, 45, 8), "nddot");
  t.bstar = parse_implied_exponent(field(line1, 54, 8), "bstar");
  t.element_set_number = parse_int(field(line1, 65, 4), "element set");

  const int cat2 = parse_int(field(line2, 3, 5), "catalog number (line 2)");
  if (cat2 != t.catalog_number)
    fail("catalog numbers differ between line 1 and line 2");
  t.inclination_deg = parse_double(field(line2, 9, 8), "inclination");
  t.raan_deg = parse_double(field(line2, 18, 8), "raan");
  {
    // Eccentricity has an implied leading "0." and the field must be a
    // contiguous digit run (leading/trailing spaces tolerated). The old
    // strtod(..., nullptr) on "0." + field accepted arbitrary garbage
    // and truncated at the first bad char — a corrupted column parsed
    // as a smaller, plausible eccentricity with no error.
    const std::string_view ecc_field = field(line2, 27, 7);
    std::size_t b = 0;
    while (b < ecc_field.size() && ecc_field[b] == ' ') ++b;
    std::string digits;
    while (b < ecc_field.size() &&
           std::isdigit(static_cast<unsigned char>(ecc_field[b])))
      digits += ecc_field[b++];
    while (b < ecc_field.size() && ecc_field[b] == ' ') ++b;
    if (digits.empty() || b != ecc_field.size())
      fail("bad eccentricity field");
    t.eccentricity = std::strtod(("0." + digits).c_str(), nullptr);
  }
  t.arg_perigee_deg = parse_double(field(line2, 35, 8), "arg perigee");
  t.mean_anomaly_deg = parse_double(field(line2, 44, 8), "mean anomaly");
  t.mean_motion_rev_day = parse_double(field(line2, 53, 11), "mean motion");
  t.revolution_number = parse_int(field(line2, 64, 5), "rev number");

  if (t.eccentricity < 0.0 || t.eccentricity >= 1.0)
    fail("eccentricity out of [0,1)");
  if (t.mean_motion_rev_day <= 0.0) fail("nonpositive mean motion");
  if (t.inclination_deg < 0.0 || t.inclination_deg > 180.0)
    fail("inclination out of [0,180]");
  return t;
}

Tle parse_tle(std::string_view name, std::string_view line1,
              std::string_view line2) {
  Tle t = parse_tle(line1, line2);
  t.name = trim(name);
  return t;
}

Tle make_tle(std::string name, int catalog_number,
             const KeplerianElements& kep, JulianDate epoch_jd) {
  if (kep.altitude_km < 120.0 || kep.altitude_km > 40000.0)
    throw std::invalid_argument("make_tle: altitude out of plausible range");
  if (kep.eccentricity < 0.0 || kep.eccentricity >= 1.0)
    throw std::invalid_argument("make_tle: eccentricity out of [0,1)");
  if (kep.inclination_deg < 0.0 || kep.inclination_deg > 180.0)
    throw std::invalid_argument("make_tle: inclination out of [0,180]");

  const double a_km = kEarthRadiusKm + kep.altitude_km;
  const double n_rad_s = std::sqrt(kMuEarthKm3PerS2 / (a_km * a_km * a_km));
  Tle t;
  t.name = std::move(name);
  t.catalog_number = catalog_number;
  t.intl_designator = "25001A";
  t.epoch_jd = epoch_jd;
  t.bstar = kep.bstar;
  t.inclination_deg = kep.inclination_deg;
  t.raan_deg = wrap_two_pi(kep.raan_deg * kDegToRad) * kRadToDeg;
  t.eccentricity = kep.eccentricity;
  t.arg_perigee_deg = wrap_two_pi(kep.arg_perigee_deg * kDegToRad) * kRadToDeg;
  t.mean_anomaly_deg =
      wrap_two_pi(kep.mean_anomaly_deg * kDegToRad) * kRadToDeg;
  t.mean_motion_rev_day = n_rad_s * kSecondsPerDay / kTwoPi;
  t.revolution_number = 1;
  return t;
}

}  // namespace sinet::orbit

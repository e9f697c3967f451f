#include "core/scenario.h"

#include <stdexcept>

namespace sinet::core {

std::vector<MeasurementSite> paper_measurement_sites() {
  // Station counts from paper Table 1; coordinates are the cities'
  // canonical locations; rainy fractions approximate each city's climate
  // (drives the sunny/rainy trace mix).
  return {
      {"PGH", "Pittsburgh", {40.44, -79.99, 0.24}, 3, 0.35, 7.5},
      {"LDN", "London", {51.51, -0.13, 0.02}, 5, 0.40, 9.0},
      {"SH", "Shanghai", {31.23, 121.47, 0.01}, 2, 0.33, 9.0},
      {"GZ", "Guangzhou", {23.13, 113.26, 0.02}, 2, 0.38, 8.5},
      {"SYD", "Sydney", {-33.87, 151.21, 0.02}, 4, 0.28, 8.0},
      {"HK", "Hong Kong", {22.32, 114.17, 0.05}, 6, 0.35, 8.0},
      {"NC", "Nanchang", {28.68, 115.89, 0.03}, 1, 0.38, 8.5},
      {"YC", "Yinchuan", {38.49, 106.23, 1.1}, 4, 0.12, 4.0},
  };
}

MeasurementSite paper_site(const std::string& code) {
  for (MeasurementSite& s : paper_measurement_sites())
    if (s.code == code) return s;
  throw std::invalid_argument("unknown measurement site: " + code);
}

std::vector<MeasurementSite> availability_sites() {
  return {paper_site("HK"), paper_site("SYD"), paper_site("LDN"),
          paper_site("PGH")};
}

orbit::JulianDate campaign_epoch_jd() {
  return orbit::julian_from_civil(2025, 3, 1, 0, 0, 0.0);
}

}  // namespace sinet::core

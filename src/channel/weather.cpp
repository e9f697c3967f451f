#include "channel/weather.h"

#include <stdexcept>

namespace sinet::channel {

double weather_excess_loss_db(Weather w) noexcept {
  switch (w) {
    case Weather::kSunny:
      return 0.0;
    case Weather::kCloudy:
      return 0.7;
    case Weather::kRainy:
      return 2.0;
  }
  return 0.0;
}

double weather_extra_shadowing_db(Weather w) noexcept {
  switch (w) {
    case Weather::kSunny:
      return 0.0;
    case Weather::kCloudy:
      return 0.5;
    case Weather::kRainy:
      return 1.5;
  }
  return 0.0;
}

std::string to_string(Weather w) {
  switch (w) {
    case Weather::kSunny:
      return "sunny";
    case Weather::kCloudy:
      return "cloudy";
    case Weather::kRainy:
      return "rainy";
  }
  return "unknown";
}

}  // namespace sinet::channel

// Weather conditions and their attenuation on UHF satellite links.
//
// The paper compares beacon reception and DtS retransmissions across sunny
// and rainy days (Figs 3d, 5b). At 400-450 MHz rain attenuation itself is
// small; the dominant rainy-day penalties are increased sky noise, antenna
// wetting and scintillation, which we lump into a per-condition excess
// loss plus a shadowing-variance inflation.
#pragma once

#include <string>

namespace sinet::channel {

enum class Weather { kSunny, kCloudy, kRainy };

/// Mean excess attenuation (dB) added to the link budget.
[[nodiscard]] double weather_excess_loss_db(Weather w) noexcept;

/// Additional shadowing standard deviation (dB) stacked on the clear-sky
/// value: rainy links fluctuate more.
[[nodiscard]] double weather_extra_shadowing_db(Weather w) noexcept;

[[nodiscard]] std::string to_string(Weather w);

}  // namespace sinet::channel

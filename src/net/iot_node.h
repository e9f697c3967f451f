// Satellite IoT end-node (Tianqi-node analogue) configuration used by
// the DtS network simulator.
#pragma once

#include <cstddef>
#include <string>

#include "channel/antenna.h"

namespace sinet::net {

struct IotNodeConfig {
  std::string name = "node";
  channel::AntennaType antenna =
      channel::AntennaType::kQuarterWaveMonopole;
  int report_payload_bytes = 20;    ///< paper: 20-byte agriculture reading
  double report_interval_s = 1800.0;  ///< every 30 minutes
  /// Maximum DtS retransmissions after the first attempt (0 disables ARQ;
  /// the paper evaluates 0 and 5).
  int max_retransmissions = 0;
  std::size_t buffer_capacity = 512;  ///< local store-and-forward buffer
};

}  // namespace sinet::net

// Uplink medium access: beacon-gated slotted ALOHA with capture.
//
// When a satellite's footprint (10^7 km^2, Table 3) holds many nodes, all
// of them answer the same beacons, so concurrent uplinks collide at the
// satellite (paper Sec 3.1 & Fig 12b). We model the standard capture
// effect: of two time-overlapping packets on one channel, the stronger
// survives if it exceeds the other by the capture threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sinet::net {

struct Transmission {
  std::uint64_t id = 0;
  double start = 0.0;  ///< sim time (s)
  double end = 0.0;
  double rssi_dbm = 0.0;

  [[nodiscard]] bool overlaps(const Transmission& o) const noexcept {
    return start < o.end && o.start < end;
  }
};

struct MacConfig {
  double capture_threshold_db = 6.0;
};

/// Decide which of a set of (possibly overlapping) transmissions decode
/// successfully at a single receiver. A transmission survives if every
/// overlapping transmission is at least `capture_threshold_db` weaker.
/// Returns the ids of surviving transmissions, in input order.
[[nodiscard]] std::vector<std::uint64_t> resolve_collisions(
    const std::vector<Transmission>& txs, const MacConfig& cfg = {});

/// Convenience: true if `tx` survives against `others` under `cfg`.
[[nodiscard]] bool survives_collisions(const Transmission& tx,
                                       const std::vector<Transmission>& others,
                                       const MacConfig& cfg = {});

/// Medium-access discipline for beacon-gated uplinks.
enum class UplinkAccess {
  kSlottedAloha,  ///< random offset in the beacon period (baseline)
  /// Constellation-aware scheduling in the spirit of CosMAC (MobiCom'24,
  /// cited by the paper as the fix for footprint-wide collisions): the
  /// beacon carries a subslot map, so responders transmit in dedicated,
  /// non-overlapping subslots.
  kScheduled,
};

/// Non-overlapping subslot start offsets for `responders` transmissions
/// of duration `toa_s` within a beacon period of `period_s`, separated
/// by `guard_s`. Every offset satisfies
///   lead_in_s <= offset  and  offset + toa_s <= period_s,
/// so no scheduled transmission overruns the beacon period. Offsets cycle
/// if the period cannot hold all responders (late ones collide — the
/// schedule is oversubscribed). Throws std::invalid_argument for
/// nonpositive durations or when even a single transmission cannot fit
/// (lead_in_s + toa_s > period_s).
[[nodiscard]] std::vector<double> assign_subslots(std::size_t responders,
                                                  double toa_s,
                                                  double period_s,
                                                  double guard_s = 0.2,
                                                  double lead_in_s = 0.3);

}  // namespace sinet::net

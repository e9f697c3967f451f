// Satellite-side model: identity, propagator, and the store-and-forward
// buffer that holds uplinked packets until a ground-station contact.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "net/packet.h"
#include "orbit/sgp4.h"
#include "orbit/tle.h"

namespace sinet::net {

/// Bounded FIFO store-and-forward buffer (paper Sec 3.1: buffer sizing
/// must follow the contact duration/interval statistics; overflow drops).
class StoreAndForwardBuffer {
 public:
  explicit StoreAndForwardBuffer(std::size_t capacity_packets = 4096);

  /// Store a packet. Returns false (and counts a drop) when the buffer is
  /// full: the incoming packet is rejected (tail drop).
  bool store(StoredPacket p);

  /// Remove and return everything currently buffered.
  [[nodiscard]] std::vector<StoredPacket> flush();

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept {
    return buffer_.size() >= capacity_;
  }
  [[nodiscard]] std::size_t drop_count() const noexcept { return drops_; }
  [[nodiscard]] std::size_t peak_occupancy() const noexcept { return peak_; }

 private:
  std::size_t capacity_;
  std::deque<StoredPacket> buffer_;
  std::size_t drops_ = 0;
  std::size_t peak_ = 0;
};

/// One satellite of a constellation in the simulator.
struct Satellite {
  std::string name;
  std::string constellation;
  orbit::Sgp4 propagator;
  StoreAndForwardBuffer buffer;

  Satellite(std::string sat_name, std::string constellation_name,
            const orbit::Tle& tle, std::size_t buffer_capacity = 4096)
      : name(std::move(sat_name)),
        constellation(std::move(constellation_name)),
        propagator(tle),
        buffer(buffer_capacity) {}
};

}  // namespace sinet::net

#include "net/satellite.h"

#include <stdexcept>

namespace sinet::net {

StoreAndForwardBuffer::StoreAndForwardBuffer(std::size_t capacity_packets)
    : capacity_(capacity_packets) {
  if (capacity_packets == 0)
    throw std::invalid_argument("StoreAndForwardBuffer: zero capacity");
}

bool StoreAndForwardBuffer::store(StoredPacket p) {
  if (full()) {
    ++drops_;
    return false;
  }
  buffer_.push_back(std::move(p));
  if (buffer_.size() > peak_) peak_ = buffer_.size();
  return true;
}

std::vector<StoredPacket> StoreAndForwardBuffer::flush() {
  std::vector<StoredPacket> out(buffer_.begin(), buffer_.end());
  buffer_.clear();
  return out;
}

}  // namespace sinet::net

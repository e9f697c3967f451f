#include "sim/shard.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sinet::sim {

namespace {

/// Union-find over member indices with path halving; no rank (member
/// counts per slice are small and the find chain is already short).
class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Union by smaller root index so the representative of a component is
  /// always its smallest member — canonical without a second pass.
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

ConflictScheduler::ConflictScheduler(std::uint32_t member_count)
    : member_count_(member_count) {}

void ConflictScheduler::advance_to(std::uint32_t slice) {
  if (slice < closed_)
    throw std::invalid_argument("ConflictScheduler: slice already closed");
  while (closed_ < slice) close_slice();
  slice_count_ = std::max(slice_count_, slice + 1);
}

void ConflictScheduler::touch(std::uint32_t slice, std::uint32_t member,
                              std::uint64_t resource) {
  if (member >= member_count_)
    throw std::out_of_range("ConflictScheduler: member out of range");
  advance_to(slice);
  touches_.emplace_back(resource, member);
}

void ConflictScheduler::activate(std::uint32_t slice, std::uint32_t member) {
  if (member >= member_count_)
    throw std::out_of_range("ConflictScheduler: member out of range");
  advance_to(slice);
  active_.push_back(member);
}

void ConflictScheduler::close_slice() {
  // Sort touches by (resource, member): equal-resource runs become union
  // chains, and the sort makes the result insertion-order-free.
  std::sort(touches_.begin(), touches_.end());
  touches_.erase(std::unique(touches_.begin(), touches_.end()),
                 touches_.end());

  UnionFind uf(member_count_);
  std::vector<std::uint32_t> members;
  members.reserve(touches_.size() + active_.size());
  for (std::size_t i = 0; i < touches_.size(); ++i) {
    members.push_back(touches_[i].second);
    if (i > 0 && touches_[i].first == touches_[i - 1].first)
      uf.unite(touches_[i - 1].second, touches_[i].second);
  }
  for (const std::uint32_t m : active_) members.push_back(m);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  // Emit components keyed by their (smallest-member) representative;
  // iterating members in ascending order yields shards ordered by
  // smallest member with each shard's list already sorted.
  std::vector<std::int64_t> shard_of(member_count_, -1);
  std::vector<std::vector<std::uint32_t>> shards;
  for (const std::uint32_t m : members) {
    const std::uint32_t root = uf.find(m);
    if (shard_of[root] < 0) {
      shard_of[root] = static_cast<std::int64_t>(shards.size());
      shards.emplace_back();
    }
    shards[static_cast<std::size_t>(shard_of[root])].push_back(m);
  }
  for (const auto& shard : shards) {
    schedule_.members.insert(schedule_.members.end(), shard.begin(),
                             shard.end());
    schedule_.shard_begin.push_back(
        static_cast<std::uint32_t>(schedule_.members.size()));
  }
  schedule_.slice_begin.push_back(
      static_cast<std::uint32_t>(schedule_.shard_begin.size() - 1));
  touches_.clear();
  active_.clear();
  ++closed_;
}

ShardSchedule ConflictScheduler::build() {
  while (closed_ < slice_count_) close_slice();
  ShardSchedule out = std::move(schedule_);
  schedule_ = ShardSchedule{};
  slice_count_ = closed_ = 0;
  return out;
}

}  // namespace sinet::sim

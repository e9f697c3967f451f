#include "sim/shard.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sinet::sim {

namespace {

constexpr std::uint32_t kNoShard = static_cast<std::uint32_t>(-1);

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
    : member_count_(member_count), last_of_member_(member_count, kNoShard) {}

std::uint32_t ShardSchedule::slice_of(std::uint32_t j) const {
  // The last slice starting at or before j; an empty slice starts where
  // the next one does, so it is skipped.
  const auto it =
      std::upper_bound(slice_begin.begin(), slice_begin.end(), j);
  return static_cast<std::uint32_t>(it - slice_begin.begin() - 1);
}

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
  // Dependencies: the latest earlier shard of each member and of each
  // resource. A member or resource belongs to one shard of the slice, so
  // its latest shard can be read and moved on in one pass.
  const std::uint32_t base = schedule_.total_shards();
  std::vector<std::vector<std::uint32_t>> preds(shards.size());
  for (std::size_t j = 0; j < shards.size(); ++j) {
    for (const std::uint32_t m : shards[j]) {
      if (last_of_member_[m] != kNoShard)
        preds[j].push_back(last_of_member_[m]);
      last_of_member_[m] = base + static_cast<std::uint32_t>(j);
    }
  }
  for (std::size_t i = 0; i < touches_.size(); ++i) {
    if (i > 0 && touches_[i].first == touches_[i - 1].first) continue;
    const auto j = static_cast<std::uint32_t>(
        shard_of[uf.find(touches_[i].second)]);
    const auto [it, first] =
        last_of_resource_.try_emplace(touches_[i].first, base + j);
    if (first) continue;
    preds[j].push_back(it->second);
    it->second = base + j;
  }
  for (std::size_t j = 0; j < shards.size(); ++j) {
    schedule_.members.insert(schedule_.members.end(), shards[j].begin(),
                             shards[j].end());
    schedule_.shard_begin.push_back(
        static_cast<std::uint32_t>(schedule_.members.size()));
    std::sort(preds[j].begin(), preds[j].end());
    preds[j].erase(std::unique(preds[j].begin(), preds[j].end()),
                   preds[j].end());
    for (const std::uint32_t p : preds[j])
      edges_.emplace_back(p, base + static_cast<std::uint32_t>(j));
  }
  schedule_.slice_begin.push_back(
      static_cast<std::uint32_t>(schedule_.shard_begin.size() - 1));
  touches_.clear();
  active_.clear();
  ++closed_;
}

ShardSchedule ConflictScheduler::build() {
  while (closed_ < slice_count_) close_slice();
  // Successor rows by counting sort on the predecessor. edges_ ascends in
  // its successor, so each row comes out ascending.
  const std::uint32_t n = schedule_.total_shards();
  schedule_.pred_count.assign(n, 0);
  schedule_.succ_begin.assign(std::size_t{n} + 1, 0);
  for (const auto& [p, s] : edges_) {
    ++schedule_.pred_count[s];
    ++schedule_.succ_begin[p + 1];
  }
  std::partial_sum(schedule_.succ_begin.begin(), schedule_.succ_begin.end(),
                   schedule_.succ_begin.begin());
  schedule_.succ.resize(edges_.size());
  std::vector<std::uint32_t> next(schedule_.succ_begin.begin(),
                                  schedule_.succ_begin.end() - 1);
  for (const auto& [p, s] : edges_) schedule_.succ[next[p]++] = s;

  ShardSchedule out = std::move(schedule_);
  schedule_ = ShardSchedule{};
  slice_count_ = closed_ = 0;
  last_of_member_.assign(member_count_, kNoShard);
  last_of_resource_.clear();
  edges_.clear();
  return out;
}

}  // namespace sinet::sim

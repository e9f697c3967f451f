// Deterministic conflict scheduling for sharded simulation.
//
// The DtS engine (net/dts_engine.cpp) divides a run into fixed
// time slices and, inside each slice, groups satellites whose footprints
// touch a common ground location into one shard: shards of a slice never
// share a mutable resource, so they can run concurrently on
// sim::ThreadPool with no locks, and the schedule itself is a pure
// function of the input — identical for every thread count. This header
// is the generic piece: members (e.g. satellites) declare which
// resources (e.g. location indices) they touch in which slice, and
// build() returns, per slice, the connected components of the
// member/resource sharing graph as sorted member lists in a canonical
// order, plus the dependencies between shards of different slices: a
// shard waits for the latest earlier shard holding each of its members
// and each of its resources, and for nothing else. Run as a task graph
// (sim::ThreadPool::run_graph), every member and every resource still
// sees its shards one at a time in slice order, with no barrier between
// slices.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sinet::sim {

/// Connected-component batches of every time slice, in flat offset
/// arrays: slice k owns shards [slice_begin[k], slice_begin[k + 1]) of
/// the global shard index, and shard j's members are
/// members[shard_begin[j] .. shard_begin[j + 1]). Each shard's members
/// ascend; a slice's shards are ordered by their smallest member. Members
/// of different shards of one slice share no resource within the slice
/// and may execute concurrently.
///
/// Dependencies, in the shape of sim::TaskGraph: shard j may start once
/// pred_count[j] shards have finished, and its successors are
/// succ[succ_begin[j] .. succ_begin[j + 1]), ascending. Shard j's
/// predecessors are, deduplicated, the latest earlier shard holding each
/// of its members and the latest earlier shard touching each of its
/// resources, so every edge points to a higher shard index and index
/// order is a valid serial order.
struct ShardSchedule {
  std::vector<std::uint32_t> slice_begin{0};
  std::vector<std::uint32_t> shard_begin{0};
  std::vector<std::uint32_t> members;
  std::vector<std::uint32_t> pred_count;
  std::vector<std::uint32_t> succ_begin{0};
  std::vector<std::uint32_t> succ;

  [[nodiscard]] std::uint32_t slice_count() const noexcept {
    return static_cast<std::uint32_t>(slice_begin.size() - 1);
  }
  [[nodiscard]] std::uint32_t shard_count(std::uint32_t slice) const {
    return slice_begin[slice + 1] - slice_begin[slice];
  }
  /// Shards of every slice.
  [[nodiscard]] std::uint32_t total_shards() const noexcept {
    return static_cast<std::uint32_t>(shard_begin.size() - 1);
  }
  /// Members of global shard `j`.
  [[nodiscard]] std::span<const std::uint32_t> members_of(
      std::uint32_t j) const {
    return {members.data() + shard_begin[j],
            members.data() + shard_begin[j + 1]};
  }
  /// The slice global shard `j` belongs to.
  [[nodiscard]] std::uint32_t slice_of(std::uint32_t j) const;
  /// Successors of global shard `j`.
  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::uint32_t j) const {
    return {succ.data() + succ_begin[j], succ.data() + succ_begin[j + 1]};
  }
};

/// Accumulates (slice, member, resource) touches and computes the
/// conflict schedule one slice at a time, so it holds the touches of one
/// slice, never of the whole run. Slices are registered in non-decreasing
/// order: a touch or activation for a later slice closes every earlier
/// one. Within a slice the output depends only on the set of touches,
/// not on their order. Not thread-safe.
class ConflictScheduler {
 public:
  /// `member_count` fixes the member index universe [0, member_count).
  explicit ConflictScheduler(std::uint32_t member_count);

  /// Record that `member` uses `resource` during `slice`. Two members
  /// touching the same resource in the same slice land in one shard
  /// (transitively). Throws std::out_of_range for a member outside the
  /// universe and std::invalid_argument for a slice already closed.
  void touch(std::uint32_t slice, std::uint32_t member,
             std::uint64_t resource);

  /// Record that `member` is active in `slice` without claiming any
  /// shared resource (e.g. a satellite draining its own buffer): it
  /// becomes its own singleton shard unless touch() also links it.
  void activate(std::uint32_t slice, std::uint32_t member);

  /// Slices registered so far (the highest slice seen, plus one).
  [[nodiscard]] std::uint32_t slice_count() const noexcept {
    return slice_count_;
  }

  /// Closes the last slice and returns the shards of every slice, in
  /// slice order, with their dependencies; slices with no active member
  /// have no shards. The scheduler then starts over, empty.
  [[nodiscard]] ShardSchedule build();

 private:
  /// Close every slice before `slice`.
  void advance_to(std::uint32_t slice);
  void close_slice();

  std::uint32_t member_count_;
  std::uint32_t slice_count_ = 0;
  std::uint32_t closed_ = 0;  ///< slices [0, closed_) are in schedule_
  /// (resource, member) touches and activations of the open slice.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> touches_;
  std::vector<std::uint32_t> active_;
  ShardSchedule schedule_;
  /// Latest closed shard holding each member / touching each resource.
  std::vector<std::uint32_t> last_of_member_;
  std::unordered_map<std::uint64_t, std::uint32_t> last_of_resource_;
  /// (predecessor, successor) edges, in ascending successor order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

}  // namespace sinet::sim

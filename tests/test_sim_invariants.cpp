// Model-checked invariants for the DES core.
//
// The EventQueue is checked against a naive sorted-vector reference over
// >=10k randomized schedule/cancel/step/run_until sequences: every paper
// figure integrates over this schedule, so order, liveness accounting,
// and cancel semantics are load-bearing. The ThreadPool is stressed under
// nesting (a worker calling parallel_for on its own pool must help drain
// the queue, not deadlock — the threads=1 legacy mode is the worst case),
// exception propagation, and shared-pool reuse; EmpiricalCdf is queried
// concurrently from pool workers. The concurrency tests are the TSan
// targets wired through tools/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "stats/cdf.h"

namespace {

using sinet::sim::EventHandle;
using sinet::sim::EventQueue;
using sinet::sim::Rng;
using sinet::sim::ThreadPool;
using sinet::stats::EmpiricalCdf;

// ---------------------------------------------------------------------------
// EventQueue vs. reference model
// ---------------------------------------------------------------------------

/// Naive reference: a flat vector scanned for the earliest live entry.
/// Mirrors the documented EventQueue contract exactly; any divergence in
/// the model check is a bug in one of the two.
class RefQueue {
 public:
  EventHandle schedule(double t, int id) {
    entries_.push_back({t, next_handle_, id, State::kPending});
    return next_handle_++;
  }

  /// True iff the handle exists and is still pending (not fired, not
  /// already cancelled) — the strict semantics EventQueue must match.
  bool cancel(EventHandle h) {
    for (Entry& e : entries_)
      if (e.handle == h) {
        if (e.state != State::kPending) return false;
        e.state = State::kCancelled;
        return true;
      }
    return false;
  }

  /// Fires the earliest (time, handle) pending entry; returns its id or
  /// -1 when empty.
  int step() {
    Entry* best = nullptr;
    for (Entry& e : entries_)
      if (e.state == State::kPending &&
          (best == nullptr || e.time < best->time ||
           (e.time == best->time && e.handle < best->handle)))
        best = &e;
    if (best == nullptr) return -1;
    best->state = State::kFired;
    now_ = best->time;
    return best->id;
  }

  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const Entry& e : entries_)
      if (e.state == State::kPending) ++n;
    return n;
  }

  [[nodiscard]] double peek_time() const {
    double best = std::numeric_limits<double>::infinity();
    EventHandle best_h = 0;
    bool found = false;
    for (const Entry& e : entries_)
      if (e.state == State::kPending &&
          (!found || e.time < best || (e.time == best && e.handle < best_h))) {
        best = e.time;
        best_h = e.handle;
        found = true;
      }
    return best;
  }

  [[nodiscard]] double now() const { return now_; }

  /// Some handle that has already fired, or kInvalidEvent if none have.
  [[nodiscard]] EventHandle any_fired_handle(Rng& rng) const {
    std::vector<EventHandle> fired;
    for (const Entry& e : entries_)
      if (e.state == State::kFired) fired.push_back(e.handle);
    if (fired.empty()) return sinet::sim::kInvalidEvent;
    return fired[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fired.size()) - 1))];
  }

  [[nodiscard]] EventHandle any_handle(Rng& rng) const {
    if (entries_.empty()) return sinet::sim::kInvalidEvent;
    return entries_[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(entries_.size()) - 1))]
        .handle;
  }

 private:
  enum class State { kPending, kFired, kCancelled };
  struct Entry {
    double time;
    EventHandle handle;
    int id;
    State state;
  };
  std::vector<Entry> entries_;
  EventHandle next_handle_ = 1;  // mirrors EventQueue's first handle
  double now_ = 0.0;
};

TEST(EventQueueModelCheck, TenThousandRandomOpsMatchReference) {
  // 4 seeds x 3000 ops = 12000 randomized operations checked against the
  // reference after every single op.
  for (const std::uint64_t seed : {2u, 11u, 77u, 20260805u}) {
    Rng rng(seed);
    EventQueue q;
    RefQueue ref;
    std::vector<int> fired_ids;
    int next_id = 0;

    for (int op = 0; op < 3000; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.45) {
        // Schedule on a quantized grid so time collisions exercise the
        // (time, seq) tiebreak.
        const double t =
            q.now() + static_cast<double>(rng.uniform_int(0, 40)) * 0.25;
        const int id = next_id++;
        const EventHandle h =
            q.schedule_at(t, [&fired_ids, id] { fired_ids.push_back(id); });
        const EventHandle rh = ref.schedule(t, id);
        ASSERT_EQ(h, rh) << "seed " << seed << " op " << op;
      } else if (roll < 0.70) {
        // Cancel: mix of live, already-fired, already-cancelled, and
        // unknown handles — all four must agree with the reference.
        EventHandle victim;
        const double which = rng.uniform();
        if (which < 0.55) {
          victim = ref.any_handle(rng);
        } else if (which < 0.80) {
          victim = ref.any_fired_handle(rng);
        } else {
          victim = 1000000 + static_cast<EventHandle>(op);  // unknown
        }
        ASSERT_EQ(q.cancel(victim), ref.cancel(victim))
            << "seed " << seed << " op " << op << " victim " << victim;
      } else if (roll < 0.90) {
        const std::size_t before = fired_ids.size();
        const bool stepped = q.step();
        const int expect_id = ref.step();
        ASSERT_EQ(stepped, expect_id >= 0) << "seed " << seed << " op " << op;
        if (stepped) {
          ASSERT_EQ(fired_ids.size(), before + 1);
          ASSERT_EQ(fired_ids.back(), expect_id)
              << "seed " << seed << " op " << op;
          ASSERT_DOUBLE_EQ(q.now(), ref.now());
        }
      } else {
        // run_until a short horizon: the reference fires everything with
        // time <= until in its own order.
        const double until = q.now() + rng.uniform(0.0, 3.0);
        const std::size_t before = fired_ids.size();
        const std::size_t n = q.run_until(until);
        std::size_t ref_n = 0;
        while (ref.pending() > 0 && ref.peek_time() <= until) {
          const int id = ref.step();
          ASSERT_GE(id, 0);
          ++ref_n;
          ASSERT_EQ(fired_ids[before + ref_n - 1], id)
              << "seed " << seed << " op " << op;
        }
        ASSERT_EQ(n, ref_n) << "seed " << seed << " op " << op;
      }

      // Global invariants after every operation.
      ASSERT_EQ(q.pending(), ref.pending())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(q.empty(), ref.pending() == 0);
      if (!q.empty()) {
        ASSERT_DOUBLE_EQ(q.peek_time(), ref.peek_time())
            << "seed " << seed << " op " << op;
      } else {
        EXPECT_THROW((void)q.peek_time(), std::logic_error);
      }
    }

    // Drain and make sure the tails agree too.
    while (true) {
      const bool stepped = q.step();
      const int expect_id = ref.step();
      ASSERT_EQ(stepped, expect_id >= 0);
      if (!stepped) break;
      ASSERT_EQ(fired_ids.back(), expect_id);
    }
    ASSERT_TRUE(q.empty());
    ASSERT_EQ(q.pending(), 0u);
  }
}

// Regression for the fired-handle cancel bug: cancel() used to return
// true for an already-executed handle and decrement the live counter, so
// empty() reported true while real events were still queued and
// run_until() silently dropped them.
TEST(EventQueueRegression, CancelOfFiredHandleIsRejectedAndDropsNothing) {
  EventQueue q;
  int fired = 0;
  const EventHandle first = q.schedule_at(1.0, [&fired] { ++fired; });
  q.schedule_at(2.0, [&fired] { ++fired; });

  ASSERT_TRUE(q.step());  // fires `first`
  EXPECT_EQ(fired, 1);

  EXPECT_FALSE(q.cancel(first)) << "cancel of a fired handle must be a no-op";
  EXPECT_FALSE(q.empty()) << "one real event is still pending";
  EXPECT_EQ(q.pending(), 1u);

  EXPECT_EQ(q.run_until(10.0), 1u) << "pending event must not be dropped";
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());

  // Double-cancel of a genuinely pending handle: first wins, second no-op.
  const EventHandle h = q.schedule_at(20.0, [&fired] { ++fired; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
  EXPECT_EQ(q.run_all(), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueInvariants, PeekTimeIsConstAndSkipsCancelledRuns) {
  EventQueue q;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 64; ++i)
    hs.push_back(q.schedule_at(static_cast<double>(i), [] {}));
  // Cancel a long prefix; peek through a const ref must see past it.
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.cancel(hs[i]));
  const EventQueue& cq = q;
  EXPECT_DOUBLE_EQ(cq.peek_time(), 50.0);
  EXPECT_EQ(cq.pending(), 14u);
  EXPECT_EQ(q.run_all(), 14u);
}

// Regression for the schedule_chain leak: the chain's walker captured the
// shared_ptr that owned it, so the cycle kept the times and the visitor
// (with every capture) alive after the chain was done with. A sentinel
// captured by the visitor shows whether the chain released it.
TEST(EventQueueRegression, ScheduleChainReleasesItsVisitor) {
  const auto sentinel = std::make_shared<int>(0);
  {
    EventQueue q;
    int visits = 0;
    q.schedule_chain({1.0, 2.0, 3.0},
                     [sentinel, &visits](std::size_t) { ++visits; });
    EXPECT_EQ(sentinel.use_count(), 2);  // the pending chain holds it
    EXPECT_EQ(q.run_all(), 3u);
    EXPECT_EQ(visits, 3);
    EXPECT_EQ(sentinel.use_count(), 1) << "completed chain kept its visitor";
  }
  EXPECT_EQ(sentinel.use_count(), 1);

  {
    EventQueue q;
    const EventHandle h =
        q.schedule_chain({1.0, 2.0}, [sentinel](std::size_t) {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.run_all(), 0u);
    EXPECT_EQ(sentinel.use_count(), 1) << "cancelled chain kept its visitor";
  }
  {
    // Cancelled but never drained: the queue's destruction frees it.
    EventQueue q;
    EXPECT_TRUE(q.cancel(q.schedule_chain({1.0}, [sentinel](std::size_t) {})));
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

// ---------------------------------------------------------------------------
// ThreadPool: nesting, exceptions, shared reuse
// ---------------------------------------------------------------------------

// Regression for the nested parallel_for deadlock: a worker that called
// parallel_for blocked on the completion latch while the nested tasks sat
// behind it in the queue — guaranteed deadlock on a 1-thread pool (the
// threads=1 exact-legacy mode). The worker must help drain the queue.
TEST(ThreadPoolRegression, NestedParallelForOnOneThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  std::atomic<int> outer_runs{0};
  pool.parallel_for(4, [&](std::size_t) {
    outer_runs.fetch_add(1, std::memory_order_relaxed);
    pool.parallel_for(3, [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(outer_runs.load(), 4);
  EXPECT_EQ(inner_runs.load(), 12);
}

TEST(ThreadPoolStress, TripleNestingOnSmallPools) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> leaf{0};
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(3, [&](std::size_t) {
        pool.parallel_for(3, [&](std::size_t) {
          leaf.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
    EXPECT_EQ(leaf.load(), 27) << "threads=" << threads;
  }
}

TEST(ThreadPoolStress, ExceptionPropagatesFromNestedBody) {
  ThreadPool pool(2);
  // The lowest throwing index wins, independent of scheduling order.
  try {
    pool.parallel_for(6, [&](std::size_t i) {
      if (i == 1) throw std::runtime_error("boom-1");
      if (i == 4) throw std::runtime_error("boom-4");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-1");
  }

  // An exception in an inner nested loop surfaces through the outer one,
  // and the pool stays usable afterwards.
  std::atomic<int> survivors{0};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(2, [](std::size_t j) {
                                     if (j == 1)
                                       throw std::logic_error("inner");
                                   });
                                 }),
               std::logic_error);
  pool.parallel_for(8, [&](std::size_t) {
    survivors.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(survivors.load(), 8);
}

TEST(ThreadPoolStress, SharedPoolReusedFromManyThreads) {
  // Several external threads fan out on the shared pool concurrently —
  // the TSan target for queue/latch handoff.
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&total] {
      for (int round = 0; round < 5; ++round) {
        ThreadPool::shared().parallel_for(16, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 5 * 16);
}

TEST(ThreadPoolStress, WorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<int> on_worker{0};
  pool.parallel_for(4, [&](std::size_t) {
    if (pool.on_worker_thread())
      on_worker.fetch_add(1, std::memory_order_relaxed);
    // A different pool's worker is not ours.
    EXPECT_FALSE(ThreadPool::shared().on_worker_thread());
  });
  EXPECT_EQ(on_worker.load(), 4);
}

TEST(ThreadPoolStress, DeterministicResultsUnderNesting) {
  // Nested fan-out writing into index-owned slots must be bit-identical
  // to the serial computation.
  const std::size_t kOuter = 8, kInner = 16;
  std::vector<double> parallel_out(kOuter * kInner, 0.0);
  ThreadPool pool(3);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&, i](std::size_t j) {
      parallel_out[i * kInner + j] =
          static_cast<double>(i * 31 + j) * 0.5 + 1.0 / (1.0 + double(j));
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i)
    for (std::size_t j = 0; j < kInner; ++j)
      EXPECT_EQ(parallel_out[i * kInner + j],
                static_cast<double>(i * 31 + j) * 0.5 + 1.0 / (1.0 + double(j)));
}

// ---------------------------------------------------------------------------
// EmpiricalCdf: concurrent const queries (TSan target)
// ---------------------------------------------------------------------------

TEST(EmpiricalCdfConcurrency, ParallelQuantilesMatchSerial) {
  // Pre-fix, the lazy sort inside the const accessors mutated samples_
  // from every worker at once — a textbook data race. Now the first
  // query sorts under a mutex and the rest read the published result.
  Rng rng(4242);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(250.0, 90.0);

  EmpiricalCdf serial{std::span<const double>(xs)};
  std::vector<double> expected(33);
  for (std::size_t i = 0; i < expected.size(); ++i)
    expected[i] = serial.quantile(static_cast<double>(i) /
                                  static_cast<double>(expected.size() - 1));

  // A local 4-worker pool: real OS-thread concurrency even when the
  // shared pool is sized for a 1-CPU host.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    EmpiricalCdf cdf{std::span<const double>(xs)};  // unsorted every round
    std::vector<double> got(expected.size(), 0.0);
    pool.parallel_for(got.size(), [&](std::size_t i) {
      const double p =
          static_cast<double>(i) / static_cast<double>(got.size() - 1);
      got[i] = cdf.quantile(p);
      // Mixed concurrent const accessors sharing the same lazy sort.
      (void)cdf.fraction_at_or_below(got[i]);
      (void)cdf.fraction_between(0.0, got[i]);
      (void)cdf.sorted_samples();
    });
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "round " << round << " i " << i;
  }
}

TEST(EmpiricalCdfConcurrency, CopiesAreIndependent) {
  EmpiricalCdf a{5.0, 1.0, 3.0};
  EmpiricalCdf b = a;           // copy sorts the source first
  a.add(100.0);                 // mutating the original
  EXPECT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 100.0);

  EmpiricalCdf c = std::move(a);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);

  b = c;
  EXPECT_DOUBLE_EQ(b.quantile(1.0), 100.0);
}

}  // namespace

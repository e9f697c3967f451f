// Concurrency invariants of the sim core.
//
// The ThreadPool is stressed under nesting (a worker calling
// parallel_for on its own pool must help drain the queue, not deadlock —
// a 1-thread pool is the worst case), exception propagation, and
// shared-pool reuse; EmpiricalCdf is queried concurrently from pool
// workers. The concurrency tests are the TSan targets wired through
// tools/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "stats/cdf.h"

namespace {

using sinet::sim::Rng;
using sinet::sim::ThreadPool;
using sinet::stats::EmpiricalCdf;

// ---------------------------------------------------------------------------
// ThreadPool: nesting, exceptions, shared reuse
// ---------------------------------------------------------------------------

// Regression for the nested parallel_for deadlock: a worker that called
// parallel_for blocked on the completion latch while the nested tasks sat
// behind it in the queue — guaranteed deadlock on a 1-thread pool. The
// worker must help drain the queue.
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

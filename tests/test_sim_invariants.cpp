// Concurrency invariants of the sim core.
//
// The ThreadPool is stressed under nesting (a worker calling
// parallel_for on its own pool must help drain the queue, not deadlock —
// a 1-thread pool is the worst case), exception propagation, and
// shared-pool reuse; its task-graph executor (run_graph) is checked for
// order, failure handling and nesting; EmpiricalCdf is queried
// concurrently from pool workers. The concurrency tests are the TSan
// targets wired through tools/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "stats/cdf.h"

namespace {

using sinet::sim::Rng;
using sinet::sim::TaskGraph;
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
// ThreadPool::run_graph: dependency order, failures, nesting
// ---------------------------------------------------------------------------

/// A task graph built from (predecessor, successor) edges, owning the
/// arrays its TaskGraph view points into.
struct EdgeGraph {
  using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  EdgeGraph(std::size_t n, Edges e)
      : edges(std::move(e)), pred_count(n, 0), succ_begin(n + 1, 0) {
    std::sort(edges.begin(), edges.end());
    for (const auto& [p, s] : edges) {
      ++pred_count[s];
      ++succ_begin[p + 1];
      succ.push_back(s);
    }
    std::partial_sum(succ_begin.begin(), succ_begin.end(),
                     succ_begin.begin());
  }
  [[nodiscard]] TaskGraph view() const {
    return {pred_count, succ_begin, succ};
  }

  Edges edges;
  std::vector<std::uint32_t> pred_count, succ_begin, succ;
};

/// A random DAG: each task gets up to three predecessors among the 24
/// tasks below it, so long chains, fan-outs and fan-ins all occur.
EdgeGraph random_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  EdgeGraph::Edges edges;
  for (std::uint32_t s = 1; s < n; ++s) {
    const auto preds = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < preds; ++k) {
      const std::uint32_t lo = s > 24 ? s - 24 : 0;
      edges.emplace_back(
          static_cast<std::uint32_t>(rng.uniform_int(lo, s - 1)), s);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return EdgeGraph(n, std::move(edges));
}

TEST(ThreadPoolGraph, NoTaskStartsBeforeItsPredecessorsFinish) {
  // Each task stamps its start and its finish from one atomic clock; an
  // edge's successor must start after its predecessor finished. Tasks
  // yield a few times so that workers really overlap.
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " seed " +
                   std::to_string(seed));
      const EdgeGraph g = random_graph(400, seed);
      std::atomic<std::uint64_t> clock{0};
      std::vector<std::uint64_t> start(400, 0), finish(400, 0);
      std::vector<int> runs(400, 0);
      pool.run_graph(g.view(), [&](std::size_t i) {
        start[i] = clock.fetch_add(1);
        ++runs[i];
        for (std::size_t k = 0; k < i % 5; ++k) std::this_thread::yield();
        finish[i] = clock.fetch_add(1);
      });
      EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 400);
      for (const auto& [p, s] : g.edges)
        EXPECT_LT(finish[p], start[s]) << p << " -> " << s;
    }
  }
}

TEST(ThreadPoolGraph, FailureSkipsSuccessorsAndRethrowsTheLowestIndex) {
  // 2 and 7 throw. 2's successors (6, and 10 behind it) never run,
  // although 6 also waits on 3, which succeeds; every task that does not
  // depend on a failed one runs; the lowest failing index, 2, is
  // rethrown whichever failed first.
  const EdgeGraph g(12, {{0, 4}, {4, 8}, {1, 5}, {5, 11}, {2, 6}, {3, 6},
                         {6, 10}, {7, 9}});
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> ran(12);
      try {
        pool.run_graph(g.view(), [&](std::size_t i) {
          ran[i].fetch_add(1, std::memory_order_relaxed);
          if (i == 7) throw std::runtime_error("boom-7");
          if (i == 2) throw std::runtime_error("boom-2");
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom-2");
      }
      for (std::size_t i = 0; i < 12; ++i) {
        const bool skipped = i == 6 || i == 10 || i == 9;
        EXPECT_EQ(ran[i].load(), skipped ? 0 : 1) << "task " << i;
      }
    }
    // The pool stays usable.
    std::atomic<int> after{0};
    pool.parallel_for(8, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8);
  }
}

TEST(ThreadPoolGraph, NestedGraphOnOneThreadPoolCompletes) {
  // The only worker runs the outer tasks; each launches a graph whose
  // tasks queue behind it, so the worker must help run them.
  ThreadPool pool(1);
  const EdgeGraph inner = random_graph(50, 9);
  const EdgeGraph outer(4, {{0, 2}, {1, 3}, {2, 3}});
  std::atomic<int> inner_runs{0};
  std::atomic<int> outer_runs{0};
  pool.run_graph(outer.view(), [&](std::size_t) {
    outer_runs.fetch_add(1, std::memory_order_relaxed);
    pool.run_graph(inner.view(), [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(outer_runs.load(), 4);
  EXPECT_EQ(inner_runs.load(), 4 * 50);
  // A graph inside parallel_for, and parallel_for inside a graph.
  inner_runs = 0;
  pool.parallel_for(3, [&](std::size_t) {
    pool.run_graph(inner.view(), [&](std::size_t) {
      pool.parallel_for(2, [&](std::size_t) {
        inner_runs.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(inner_runs.load(), 3 * 50 * 2);
}

TEST(ThreadPoolGraph, RefusesMalformedGraphs) {
  // A successor at or below its task, counts that disagree with the rows
  // or rows of the wrong length could leave a task never ready; nothing
  // runs.
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  const auto body = [&](std::size_t) { runs.fetch_add(1); };
  const std::vector<std::uint32_t> zero{0, 0}, one{0, 1}, two{1, 0};
  const std::vector<std::uint32_t> rows{0, 1, 1}, back{0, 0, 1};
  const std::vector<std::uint32_t> to1{1}, to0{0};
  EXPECT_THROW(pool.run_graph(TaskGraph{zero, rows, to1}, body),
               std::invalid_argument);  // 1 has a predecessor
  EXPECT_THROW(pool.run_graph(TaskGraph{two, back, to0}, body),
               std::invalid_argument);  // 1 -> 0 points down
  EXPECT_THROW(pool.run_graph(TaskGraph{one, zero, to1}, body),
               std::invalid_argument);  // rows shorter than n + 1
  EXPECT_EQ(runs.load(), 0);
  pool.run_graph(TaskGraph{one, rows, to1}, body);
  EXPECT_EQ(runs.load(), 2);
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
      (void)cdf.sorted_samples();
    });
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "round " << round << " i " << i;
  }
}

TEST(EmpiricalCdfConcurrency, CopiesAreIndependent) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EmpiricalCdf a{std::span<const double>(xs)};
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

// Fixed-size thread pool for parallel fan-out and task graphs.
//
// The hot loops of the reproduction (pass prediction over a full
// (site x constellation x satellite) campaign) are independent per task,
// so a deliberately simple design wins: one shared FIFO queue guarded by
// a mutex, a fixed set of workers, no work stealing. Determinism is the
// caller's job — tasks write into pre-sized slots indexed by input
// position, so results never depend on scheduling order.
//
// parallel_for and run_graph are one executor: parallel_for is a graph
// without edges. Both are nesting-safe: a worker thread that calls
// either on its own pool helps drain the task queue instead of blocking,
// so nested fan-outs complete even on a 1-thread pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <vector>

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::sim {

/// A dependency graph over tasks 0..n-1 (n = pred_count.size()), in
/// compressed rows: task i may start once pred_count[i] tasks have
/// finished, and its successors are succ[succ_begin[i] ..
/// succ_begin[i + 1]). Every successor index lies above its task's, so
/// index order is a valid serial order, and each task appears among the
/// successors exactly pred_count[i] times. The spans are views, read
/// only during the run_graph call.
struct TaskGraph {
  std::span<const std::uint32_t> pred_count;
  std::span<const std::uint32_t> succ_begin;
  std::span<const std::uint32_t> succ;
};

class ThreadPool {
 public:
  /// Spawn `thread_count` workers; 0 means hardware_threads().
  explicit ThreadPool(unsigned thread_count = 0);
  /// Drains the queue (pending tasks still run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task. Tasks must not throw out of the pool unobserved;
  /// prefer parallel_for, which captures and rethrows exceptions.
  void submit(std::function<void()> task);

  /// Run body(0..n-1) across the workers and block until every index has
  /// finished. Results are deterministic as long as body(i) only writes
  /// state owned by index i. The first exception thrown by any body (in
  /// index order) is rethrown on the calling thread after all indices
  /// complete or are abandoned. Safe to call from inside a pool task:
  /// the calling worker executes queued tasks while it waits.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Run body(i) for every task of `graph` and block until all have
  /// finished: a task starts as soon as each of its predecessors has
  /// finished, and a worker finishing a task runs one of the tasks it
  /// made ready itself and queues the others. A task runs only if none
  /// of its predecessors failed (threw or was skipped); the others still
  /// run. The lowest-indexed exception is rethrown on the calling thread
  /// once every task has finished or been skipped, as parallel_for does,
  /// and nesting is safe in the same way. Throws std::invalid_argument,
  /// running nothing, when `graph` breaks TaskGraph's shape.
  void run_graph(const TaskGraph& graph,
                 const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

  /// Lazily-constructed process-wide pool with hardware_threads() workers.
  /// Shared by every batch API so nested fan-outs reuse one set of
  /// threads instead of oversubscribing the machine.
  [[nodiscard]] static ThreadPool& shared();

  /// Tasks executed since construction (always tracked; one relaxed
  /// atomic increment per task).
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Attach a metrics registry (nullptr detaches). While attached each
  /// task is timed into a per-worker busy-time accumulator; detached (the
  /// default) workers take no clock reads.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Flush pool counters into the attached registry under
  /// "sim.thread_pool.*": tasks_run (incremental), max_queue_depth,
  /// workers, and per-worker busy_s / utilization gauges (utilization is
  /// busy time over wall time since the registry was attached). No-op
  /// when detached.
  void publish_metrics();

  /// RAII attach/publish/detach. Drivers wrap the process-wide shared()
  /// pool with a scope so the pool never keeps a pointer to a registry
  /// that has gone out of scope.
  class MetricsScope {
   public:
    MetricsScope(ThreadPool& pool, obs::MetricsRegistry* registry)
        : pool_(pool), armed_(registry != nullptr) {
      if (armed_) pool_.set_metrics(registry);
    }
    ~MetricsScope() {
      if (armed_) {
        pool_.publish_metrics();
        pool_.set_metrics(nullptr);
      }
    }
    MetricsScope(const MetricsScope&) = delete;
    MetricsScope& operator=(const MetricsScope&) = delete;

   private:
    ThreadPool& pool_;
    bool armed_;
  };

 private:
  struct Batch;

  /// The one executor behind parallel_for (graph == nullptr: every task
  /// ready at once) and run_graph: a completion latch, the per-task
  /// exception slots and the helping wait.
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& body,
                 const TaskGraph* graph);
  /// Run task `i` of `batch`, release its successors and count it down;
  /// then go on with one successor it made ready, if any.
  void run_chain(const std::shared_ptr<Batch>& batch, std::size_t i);
  void submit_task(const std::shared_ptr<Batch>& batch, std::size_t i);
  void worker_loop(std::size_t worker_index);
  /// Pop one task if available and run it outside the lock.
  bool try_run_one_task();
  /// Run `task`, bumping tasks_run_ and (when timing is on) the calling
  /// worker's busy-time accumulator.
  void run_task(std::function<void()>& task, std::size_t worker_index);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;

  std::size_t max_queue_depth_ = 0;  // guarded by mutex_
  std::atomic<std::uint64_t> tasks_run_{0};
  // Per-worker busy time in nanoseconds; fixed-size, allocated once in
  // the constructor so enabling timing mid-flight never races an
  // allocation with a running worker.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  std::atomic<bool> timing_enabled_{false};

  std::mutex metrics_mutex_;
  obs::MetricsRegistry* metrics_ = nullptr;  // guarded by metrics_mutex_
  std::uint64_t published_tasks_run_ = 0;    // guarded by metrics_mutex_
  std::chrono::steady_clock::time_point attach_time_{};
};

}  // namespace sinet::sim

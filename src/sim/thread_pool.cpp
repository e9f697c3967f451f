#include "sim/thread_pool.h"

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace sinet::sim {

namespace {
// Which pool (if any) owns the current thread. Lets parallel_for detect a
// nested call from one of its own workers and switch from blocking on the
// completion latch (which would deadlock a fully-busy pool) to helping
// drain the queue.
thread_local const ThreadPool* t_worker_pool = nullptr;
// Index of the current thread within its owning pool; only meaningful
// when t_worker_pool is set.
thread_local std::size_t t_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(unsigned thread_count) {
  if (thread_count == 0) thread_count = hardware_threads();
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(thread_count);
  for (unsigned i = 0; i < thread_count; ++i)
    busy_ns_[i].store(0, std::memory_order_relaxed);
  workers_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker_pool == this;
}

void ThreadPool::run_task(std::function<void()>& task,
                          std::size_t worker_index) {
  // Count before running: a parallel_for task's completion latch fires
  // inside task(), so counting afterwards would let the caller (and a
  // MetricsScope publishing on exit) observe fewer tasks than have
  // visibly completed.
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (timing_enabled_.load(std::memory_order_relaxed)) {
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    busy_ns_[worker_index].fetch_add(static_cast<std::uint64_t>(ns),
                                     std::memory_order_relaxed);
  } else {
    task();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_pool = this;
  t_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    run_task(task, worker_index);
  }
}

bool ThreadPool::try_run_one_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  // Only ever called from parallel_for's helping branch, which requires
  // on_worker_thread(), so t_worker_index is valid here.
  run_task(task, t_worker_index);
  return true;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {  // nothing to fan out; avoid the queue round trip
    body(0);
    return;
  }

  // Completion latch + per-index exception slots (rethrow lowest index so
  // failures are reproducible regardless of worker interleaving). The body
  // is copied into the shared state so queued tasks never dangle if the
  // caller's reference dies first.
  struct State {
    std::mutex m;
    std::condition_variable done_cv;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
    std::function<void(std::size_t)> body;
  };
  auto state = std::make_shared<State>();
  state->remaining = n;
  state->errors.assign(n, nullptr);
  state->body = body;

  for (std::size_t i = 0; i < n; ++i) {
    submit([state, i] {
      try {
        state->body(i);
      } catch (...) {
        state->errors[i] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->m);
      if (--state->remaining == 0) state->done_cv.notify_all();
    });
  }

  if (on_worker_thread()) {
    // Nested call: this worker is the thread that would run the queued
    // tasks, so blocking on done_cv could wait forever (it always does on
    // a 1-thread pool). Help drain the queue instead; once it is empty,
    // every task of ours is either done or in flight on another worker,
    // and waiting on the latch is safe.
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(state->m);
        if (state->remaining == 0) break;
      }
      if (try_run_one_task()) continue;
      std::unique_lock<std::mutex> lock(state->m);
      state->done_cv.wait(lock, [&] { return state->remaining == 0; });
      break;
    }
  } else {
    std::unique_lock<std::mutex> lock(state->m);
    state->done_cv.wait(lock, [&] { return state->remaining == 0; });
  }

  // Move the exceptions out of the shared state before rethrowing. A
  // worker may still hold the last reference to `state`; left inside it,
  // the rethrown exception would be freed on that worker while the caller
  // still reads it, ordered only by exception_ptr's reference count in the
  // uninstrumented runtime, which ThreadSanitizer cannot see.
  std::vector<std::exception_ptr> errors;
  {
    std::lock_guard<std::mutex> lock(state->m);
    errors.swap(state->errors);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

void ThreadPool::set_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_ = registry;
  if (registry != nullptr) {
    attach_time_ = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < workers_.size(); ++i)
      busy_ns_[i].store(0, std::memory_order_relaxed);
    timing_enabled_.store(true, std::memory_order_relaxed);
  } else {
    timing_enabled_.store(false, std::memory_order_relaxed);
  }
}

void ThreadPool::publish_metrics() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (metrics_ == nullptr) return;
  const std::uint64_t run = tasks_run_.load(std::memory_order_relaxed);
  metrics_->counter("sim.thread_pool.tasks_run")
      .add(run - published_tasks_run_);
  published_tasks_run_ = run;
  metrics_->gauge("sim.thread_pool.workers")
      .set(static_cast<double>(workers_.size()));
  {
    std::lock_guard<std::mutex> qlock(mutex_);
    metrics_->gauge("sim.thread_pool.max_queue_depth")
        .set(static_cast<double>(max_queue_depth_));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    attach_time_)
          .count();
  double total_busy_s = 0.0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const double busy_s =
        static_cast<double>(busy_ns_[i].load(std::memory_order_relaxed)) *
        1e-9;
    total_busy_s += busy_s;
    const std::string prefix =
        "sim.thread_pool.worker" + std::to_string(i);
    metrics_->gauge(prefix + ".busy_s").set(busy_s);
    metrics_->gauge(prefix + ".utilization")
        .set(wall_s > 0.0 ? busy_s / wall_s : 0.0);
  }
  metrics_->gauge("sim.thread_pool.busy_s").set(total_busy_s);
}

}  // namespace sinet::sim

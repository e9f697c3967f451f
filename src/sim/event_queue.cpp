#include "sim/event_queue.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace sinet::sim {

EventHandle EventQueue::schedule_at(SimTime t, Callback cb) {
  if (t < now_)
    throw std::invalid_argument("EventQueue: cannot schedule in the past");
  if (!cb) throw std::invalid_argument("EventQueue: null callback");
  const EventHandle h = next_seq_;
  heap_.push(Entry{t, next_seq_, h, std::move(cb)});
  ++next_seq_;
  pending_.insert(h);
  if (pending_.size() > max_pending_) max_pending_ = pending_.size();
  return h;
}

EventHandle EventQueue::schedule_in(SimTime delay, Callback cb) {
  if (delay < 0.0)
    throw std::invalid_argument("EventQueue: negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

EventHandle EventQueue::schedule_chain(std::vector<SimTime> times,
                                       std::function<void(std::size_t)> cb) {
  if (times.empty()) return kInvalidEvent;
  if (!cb) throw std::invalid_argument("EventQueue: null chain callback");
  for (std::size_t i = 1; i < times.size(); ++i)
    if (times[i] < times[i - 1])
      throw std::invalid_argument("EventQueue: chain times must be sorted");

  // Shared walker state: each fired link runs the visitor, then schedules
  // the next link. The chain holds exactly one pending entry at a time,
  // and that entry owns the walker. The walker refers to itself weakly:
  // a strong self-capture is a cycle that would keep it, the times and
  // the visitor's captures alive after the chain completes, is
  // cancelled, or its queue dies.
  struct Chain {
    std::vector<SimTime> times;
    std::function<void(std::size_t)> visit;
  };
  using Walker = std::function<void(std::size_t)>;
  auto chain = std::make_shared<Chain>(Chain{std::move(times), std::move(cb)});
  auto fire = std::make_shared<Walker>();
  *fire = [this, chain, self = std::weak_ptr<Walker>(fire)](std::size_t i) {
    chain->visit(i);
    // The running entry still owns the walker, so the lock succeeds.
    if (i + 1 < chain->times.size())
      schedule_at(chain->times[i + 1],
                  [next = self.lock(), i] { (*next)(i + 1); });
  };
  return schedule_at(chain->times.front(), [fire] { (*fire)(0); });
}

bool EventQueue::cancel(EventHandle h) {
  // Only a handle that is still pending may be cancelled: fired, unknown,
  // and double-cancelled handles all leave the queue state untouched, so
  // empty()/pending() can never report fewer events than the heap holds.
  if (pending_.erase(h) == 0) return false;
  cancelled_.insert(h);
  return true;
}

void EventQueue::purge_cancelled_top() const {
  while (!heap_.empty() && cancelled_.erase(heap_.top().handle) > 0)
    heap_.pop();
}

SimTime EventQueue::peek_time() const {
  purge_cancelled_top();
  if (heap_.empty())
    throw std::logic_error("EventQueue: peek_time on empty queue");
  return heap_.top().time;
}

bool EventQueue::step() {
  purge_cancelled_top();
  if (heap_.empty()) return false;
  Entry e = heap_.top();
  heap_.pop();
  pending_.erase(e.handle);
  now_ = e.time;
  ++executed_;
  if (handler_ms_) {
    const auto t0 = std::chrono::steady_clock::now();
    e.cb();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t0;
    handler_ms_->record(elapsed.count());
  } else {
    e.cb();
  }
  return true;
}

void EventQueue::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  handler_ms_ =
      registry == nullptr
          ? nullptr
          : &registry->histogram("sim.event_queue.handler_ms", 0.0, 100.0,
                                 50);
}

std::size_t EventQueue::approx_memory_bytes() const noexcept {
  // Hash-set nodes cost roughly the key plus two pointers of per-node
  // overhead on mainstream implementations; the heap entries are stored
  // inline in the underlying vector. Approximate by element counts — the
  // point is an O(pending) bound, not an allocator audit.
  constexpr std::size_t kSetNodeBytes =
      sizeof(EventHandle) + 2 * sizeof(void*);
  return heap_.size() * sizeof(Entry) +
         (pending_.size() + cancelled_.size()) * kSetNodeBytes;
}

void EventQueue::publish_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->counter("sim.event_queue.events_executed")
      .add(executed_ - published_executed_);
  published_executed_ = executed_;
  metrics_->gauge("sim.event_queue.max_pending")
      .set(static_cast<double>(max_pending_));
  metrics_->gauge("sim.event_queue.pending")
      .set(static_cast<double>(pending_.size()));
  // Gauge::set folds into the high-water mark, so the published max of
  // this gauge bounds queue memory across the run.
  metrics_->gauge("sim.event_queue.approx_bytes")
      .set(static_cast<double>(approx_memory_bytes()));
}

std::size_t EventQueue::run_until(SimTime until) {
  std::size_t executed = 0;
  while (!empty()) {
    const SimTime t = peek_time();
    if (t > until) break;
    if (step()) ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

std::size_t EventQueue::run_all() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

}  // namespace sinet::sim

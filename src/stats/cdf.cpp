#include "stats/cdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sinet::stats {

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : samples_(samples.begin(), samples.end()), sorted_(false) {}

EmpiricalCdf::EmpiricalCdf(const EmpiricalCdf& other) {
  // Sorting the source first means the copy never races with a concurrent
  // lazy sort of `other` and starts life already sorted.
  other.ensure_sorted();
  samples_ = other.samples_;
  sorted_.store(true, std::memory_order_relaxed);
}

EmpiricalCdf& EmpiricalCdf::operator=(const EmpiricalCdf& other) {
  if (this != &other) {
    other.ensure_sorted();
    samples_ = other.samples_;
    sorted_.store(true, std::memory_order_relaxed);
  }
  return *this;
}

EmpiricalCdf::EmpiricalCdf(EmpiricalCdf&& other) noexcept
    : samples_(std::move(other.samples_)),
      sorted_(other.sorted_.load(std::memory_order_relaxed)) {
  other.samples_.clear();
  other.sorted_.store(true, std::memory_order_relaxed);
}

EmpiricalCdf& EmpiricalCdf::operator=(EmpiricalCdf&& other) noexcept {
  if (this != &other) {
    samples_ = std::move(other.samples_);
    sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    other.samples_.clear();
    other.sorted_.store(true, std::memory_order_relaxed);
  }
  return *this;
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_.store(false, std::memory_order_release);
}

void EmpiricalCdf::ensure_sorted() const {
  // Double-checked: the fast path is one acquire load, so concurrent
  // queries from pool workers only contend on the very first call after a
  // mutation. The release store publishes the sorted samples_ to readers.
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(sort_mutex_);
  if (!sorted_.load(std::memory_order_relaxed)) {
    std::sort(samples_.begin(), samples_.end());
    sorted_.store(true, std::memory_order_release);
  }
}

double EmpiricalCdf::quantile(double p) const {
  if (samples_.empty()) throw std::out_of_range("quantile of empty CDF");
  if (p < 0.0 || p > 1.0 || std::isnan(p))
    throw std::out_of_range("quantile probability must be in [0,1]");
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double EmpiricalCdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(p), p);
  }
  return out;
}

std::span<const double> EmpiricalCdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

}  // namespace sinet::stats

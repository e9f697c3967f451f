#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sinet::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x) noexcept { add(x, 1.0); }

void Histogram::add(double x, double weight) noexcept {
  total_ += weight;
  // NaN fails both range checks below, and casting NaN to an integer is
  // undefined behaviour — route it to its own bucket first.
  if (std::isnan(x)) {
    nan_ += weight;
    return;
  }
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // guard fp edge at hi_
  counts_[idx] += weight;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size())
    throw std::invalid_argument(
        "Histogram::merge: incompatible binning (lo/hi/bins differ)");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  nan_ += other.nan_;
  total_ += other.total_;
}

double Histogram::bin_lower_edge(std::size_t i) const noexcept {
  return lo_ + static_cast<double>(i) * width_;
}

double Histogram::count(std::size_t i) const { return counts_.at(i); }

std::string Histogram::render(std::size_t max_width) const {
  std::string out;
  const double peak =
      counts_.empty() ? 0.0 : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char head[96];
    std::snprintf(head, sizeof(head), "[%10.3g,%10.3g) %8.0f |",
                  bin_lower_edge(i), bin_lower_edge(i) + width_, counts_[i]);
    out += head;
    if (peak > 0.0) {
      const auto bar = static_cast<std::size_t>(
          std::lround(counts_[i] / peak * static_cast<double>(max_width)));
      out.append(bar, '#');
    }
    out += '\n';
  }
  return out;
}

}  // namespace sinet::stats

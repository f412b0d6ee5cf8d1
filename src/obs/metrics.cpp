#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

namespace cawo::obs {

Histogram::Histogram(std::vector<double> bucketBounds)
    : bounds_(std::move(bucketBounds)),
      buckets_(bounds_.empty() ? 0 : bounds_.size() + 1, 0) {}

const std::vector<double>& Histogram::defaultLatencyBucketsMs() {
  static const std::vector<double> buckets = {
      0.1, 0.2, 0.5, 1.0,  2.0,  5.0,   10.0,  20.0,   50.0,
      100, 200, 500, 1000, 2000, 5000.0, 10000.0};
  return buckets;
}

void Histogram::record(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(value);
  sorted_ = false;
  sum_ += value;
  if (!buckets_.empty()) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  }
}

void Histogram::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  sorted_ = true;
  sum_ = 0.0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(samples_.size());
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Historical serve formula, byte-stable for the same samples: index
  // floor(q * n) clamped to the last sample.
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(samples_.size()));
  return samples_[std::min(rank, samples_.size() - 1)];
}

std::vector<std::int64_t> Histogram::bucketCounts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_;
}

} // namespace cawo::obs

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

/// \file metrics.hpp
/// Sample histogram with exact nearest-rank percentiles (see DESIGN.md,
/// "Telemetry layer" and docs/observability.md).
///
/// The serve daemon's latency and queue-wait statistics and the trace
/// summary's per-span durations are kept as `Histogram`s: the exact
/// sample set (mutex-protected) so nearest-rank percentiles are exact,
/// plus fixed bucket counts for the serve `detail:"full"` export.

namespace cawo::obs {

/// Sample histogram with exact nearest-rank percentiles plus fixed
/// bucket counts.
///
/// The percentile is the serve daemon's historical definition, kept
/// byte-stable: sort ascending, take index `floor(q * n)` clamped to
/// `n - 1`. Edge behavior is pinned by direct unit tests: an empty
/// histogram reports 0.0 for every statistic, a single sample is
/// returned for every q, and q outside [0, 1] is clamped instead of
/// indexing out of range.
class Histogram {
public:
  /// `bucketBounds` are upper bounds (ascending); samples land in the
  /// first bucket whose bound is >= the value, with one implicit
  /// overflow bucket at the end. An empty bounds list keeps samples
  /// only (used by the trace summary).
  explicit Histogram(std::vector<double> bucketBounds);
  Histogram() : Histogram(defaultLatencyBucketsMs()) {}

  void record(double value);
  void clear();

  std::int64_t count() const;
  double sum() const;
  double mean() const; ///< 0.0 when empty
  double min() const;  ///< 0.0 when empty
  double max() const;  ///< 0.0 when empty
  /// Nearest-rank percentile over the exact samples (see class comment).
  double percentile(double q) const;

  const std::vector<double>& bucketBounds() const { return bounds_; }
  /// Per-bucket counts, size `bucketBounds().size() + 1` (overflow last);
  /// empty when constructed with no bounds.
  std::vector<std::int64_t> bucketCounts() const;

  /// Default latency buckets (ms), a 1-2-5 ladder from 0.1ms to 10s.
  static const std::vector<double>& defaultLatencyBucketsMs();

private:
  mutable std::mutex mutex_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;
  double sum_ = 0.0;
};

} // namespace cawo::obs

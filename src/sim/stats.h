// Measurement helpers: latency distributions and time-series sampling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/check.h"
#include "sim/time.h"

namespace bio::sim {

/// Accumulates latency samples (ns) and reports distribution statistics.
/// Percentile computation sorts lazily and caches until the next add().
class LatencyRecorder {
 public:
  void add(SimTime sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double total = 0.0;
    for (SimTime s : samples_) total += static_cast<double>(s);
    return total / static_cast<double>(samples_.size());
  }

  /// p in [0, 100]; nearest-rank percentile.
  SimTime percentile(double p) const {
    BIO_CHECK(p >= 0.0 && p <= 100.0);
    if (samples_.empty()) return 0;
    ensure_sorted();
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n));
    if (rank >= n) rank = n - 1;
    return samples_[rank];
  }

  SimTime median() const { return percentile(50.0); }
  SimTime min() const { return percentile(0.0); }
  SimTime max() const { return percentile(100.0); }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<SimTime> samples_;
  mutable bool sorted_ = false;
};

/// Records (time, value) pairs, e.g. command-queue depth over time
/// (Figs 10 and 12 of the paper).
class TimeSeries {
 public:
  struct Point {
    SimTime at;
    double value;
  };

  void record(SimTime at, double value) { points_.push_back({at, value}); }

  const std::vector<Point>& points() const noexcept { return points_; }
  bool empty() const noexcept { return points_.empty(); }

  double mean_value() const {
    if (points_.empty()) return 0.0;
    double total = 0.0;
    for (const Point& p : points_) total += p.value;
    return total / static_cast<double>(points_.size());
  }

  /// Time-weighted average assuming the value holds until the next point.
  /// `end` closes the last interval.
  double time_weighted_mean(SimTime end) const {
    if (points_.empty()) return 0.0;
    double area = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const SimTime next = i + 1 < points_.size() ? points_[i + 1].at : end;
      if (next > points_[i].at)
        area += points_[i].value * static_cast<double>(next - points_[i].at);
    }
    const SimTime span = end > points_.front().at ? end - points_.front().at : 0;
    return span == 0 ? points_.back().value : area / static_cast<double>(span);
  }

  double max_value() const {
    double m = 0.0;
    for (const Point& p : points_) m = std::max(m, p.value);
    return m;
  }

  void clear() { points_.clear(); }

 private:
  std::vector<Point> points_;
};

}  // namespace bio::sim

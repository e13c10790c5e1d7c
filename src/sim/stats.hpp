// Summary statistics for simulated measurements.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_time.hpp"

namespace perseas::sim {

/// Online summary of a stream of samples: count, mean, min/max, variance
/// (Welford), plus exact percentiles from retained samples.
///
/// Retaining every sample is acceptable here: benchmark runs are bounded
/// (<= a few million samples) and exact tail percentiles matter when
/// comparing engines whose latencies differ by orders of magnitude.
class Summary {
 public:
  void add(double x);
  /// Makes room for `n` samples in all, so a caller that knows its count
  /// grows the sample store once.
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::uint64_t count() const noexcept { return static_cast<std::uint64_t>(samples_.size()); }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double total() const noexcept { return total_; }

  /// Exact percentile; sorts lazily.  q must be in [0,1] (throws
  /// std::invalid_argument otherwise); q=0 is the minimum and q=1 the
  /// maximum.  An empty summary yields NaN ("no data"), not a throw.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }

  void clear();

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double total_ = 0.0;
};

/// Latency recorder keyed to simulated durations, reporting in microseconds.
class LatencyRecorder {
 public:
  void record(SimDuration d) { us_.add(to_us(d)); }
  void reserve(std::size_t n) { us_.reserve(n); }

  [[nodiscard]] const Summary& summary() const noexcept { return us_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return us_.count(); }
  [[nodiscard]] double mean_us() const noexcept { return us_.mean(); }
  [[nodiscard]] double p50_us() const { return us_.percentile(0.50); }
  [[nodiscard]] double p99_us() const { return us_.percentile(0.99); }
  [[nodiscard]] double max_us() const noexcept { return us_.max(); }

  /// Throughput implied by the mean latency, in operations per second.
  [[nodiscard]] double ops_per_second() const noexcept {
    return us_.mean() > 0 ? 1e6 / us_.mean() : 0.0;
  }

  void clear() { us_.clear(); }

 private:
  Summary us_;
};

}  // namespace perseas::sim

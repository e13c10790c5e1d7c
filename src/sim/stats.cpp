#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perseas::sim {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
  total_ += x;
  const double n = static_cast<double>(samples_.size());
  const double delta = x - mean_;
  mean_ += delta / n;
  m2_ += delta * (x - mean_);
}

double Summary::min() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(samples_.size() - 1));
}

double Summary::percentile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q out of [0,1]");
  // An empty summary has no defined percentile; NaN lets reporting code
  // (e.g. obs::MetricsRegistry) serialize "no data" without try/catch.
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Pin the endpoints: q=0 is the exact minimum and q=1 the exact maximum,
  // independent of interpolation rounding.
  if (q == 0.0) return samples_.front();
  if (q == 1.0) return samples_.back();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Summary::clear() {
  samples_.clear();
  sorted_ = true;
  mean_ = 0.0;
  m2_ = 0.0;
  total_ = 0.0;
}

}  // namespace perseas::sim

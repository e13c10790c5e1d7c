// The repository's one Zipf sampler (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases" — the standard generator for TPC-like
// skewed access): order-entry's item picker and the contention workloads'
// row selection.
//
// The recurrence needs an O(n) harmonic sum, which is fine for one
// generator but not for a bench sweeping policy x theta x threads where
// every worker wants its own sampler over the same row space.  FastZipf
// splits the construction: zipf_zeta(n, theta) computes the sum once, and
// every FastZipf over the same (n, theta) reuses it, making per-worker
// samplers O(1) to build.  It also admits theta == 0 (exactly uniform), so
// one code path sweeps from no-skew to hot-spot workloads.
#pragma once

#include <cstdint>

#include "sim/random.hpp"

namespace perseas::workload {

/// The generalised harmonic number sum_{i=1..n} i^-theta — Zipf's
/// normalisation constant.  O(n); compute once per (n, theta) and share
/// across FastZipf instances.
[[nodiscard]] double zipf_zeta(std::uint64_t n, double theta);

/// Zipf-distributed integers in [0, n) with skew theta in [0, 1): rank 0
/// is the hottest row.  theta == 0 is exactly uniform; theta -> 1
/// approaches the classic 80/20 hot spot and beyond.
class FastZipf {
 public:
  /// Convenience: computes the normalisation constant itself (O(n)).
  FastZipf(std::uint64_t n, double theta);

  /// Shared-constant constructor: `zetan` must be zipf_zeta(n, theta).
  /// O(1) — the per-worker path.
  FastZipf(std::uint64_t n, double theta, double zetan);

  [[nodiscard]] std::uint64_t next(sim::Rng& rng) const noexcept;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double theta() const noexcept { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  // Precomputed Gray et al. constants; unused (zero) when theta_ == 0.
  double alpha_ = 0.0;
  double zetan_ = 0.0;
  double eta_ = 0.0;
  double half_pow_theta_ = 0.0;
};

}  // namespace perseas::workload

// Named-metric registry: counters and gauges, dumped as Prometheus text
// format and as machine-readable JSON.
//
// Metrics are exported on dump: every layer already keeps an authoritative
// stats struct (core::PerseasStats, netram::NetworkStats, disk::DiskStats,
// the WAL engines' stats).  Each layer's export_metrics() folds that struct
// into the registry right before serialization, so the registry and the
// stats structs cannot drift: the stats struct *is* the source of truth and
// the registry is a view.  Call export_metrics once per component instance
// per registry (counters accumulate across instances, e.g. one row per
// bench configuration).
//
// Like tracing, the registry charges no simulated time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "obs/json.hpp"

namespace perseas::obs {

/// Monotonic counter (Prometheus "counter").
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value (Prometheus "gauge").
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// The metric table is guarded by mu_: registration (find-or-create) and
/// serialization may race once worker threads arrive.  The *returned*
/// Counter/Gauge references are deliberately outside the lock's
/// scope — they are stable for the registry's lifetime and each belongs to
/// exactly one instrumenting component, per the export-on-dump contract
/// above.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Looks up or creates the metric with this name + label set.  `labels`
  /// is the raw Prometheus label body, e.g. `phase="propagate"` (empty =
  /// unlabelled).  The help string of the first registration wins.
  /// Returned references stay valid for the registry's lifetime.
  Counter& counter(std::string_view name, std::string_view help = "",
                   std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view help = "",
               std::string_view labels = "");

  [[nodiscard]] std::size_t size() const noexcept {
    sync::LockGuard lock(mu_);
    return metrics_.size();
  }

  /// Prometheus text exposition format (one HELP/TYPE block per family).
  [[nodiscard]] std::string to_prometheus() const;

  /// Machine-readable dump: {"counters": {...}, "gauges": {...}}.
  [[nodiscard]] Json to_json() const;

  /// Writes the registry to `path`: Prometheus text when the path ends in
  /// ".prom" or ".txt", pretty JSON otherwise ("-" = JSON on stdout),
  /// through obs::write_file, which throws std::runtime_error on any I/O
  /// failure.
  void save(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct Metric {
    Kind kind = Kind::kCounter;
    std::string name;
    std::string labels;
    std::string help;
    Counter counter;
    Gauge gauge;
  };

  Metric& find_or_create(Kind kind, std::string_view name, std::string_view help,
                         std::string_view labels) PERSEAS_REQUIRES(mu_);

  mutable sync::Mutex mu_;
  /// Registration order; unique_ptr keeps returned references stable.
  std::vector<std::unique_ptr<Metric>> metrics_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::obs

// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each binary prints the rows/series of the paper table or figure it
// regenerates (simulated 1997 hardware, so the numbers are reproducible
// anywhere); the flag-wired ones also emit them as perseas-bench/1 rows
// through Harness.  Host time has its own harness (perfbench/).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/output.hpp"
#include "obs/trace.hpp"
#include "sim/sim_time.hpp"

namespace perseas::bench {

/// Observability harness shared by the benchmark binaries.  Parses the
/// flags
///
///   --trace=<file>     write a Perfetto/Chrome trace-event JSON file
///   --metrics=<file>   write the BENCH_*.json result document
///                      ("-" prints one "BENCH_JSON {...}" line on stdout)
///   --quick            benches shrink their workloads (CI smoke runs)
///
/// with PERSEAS_TRACE / PERSEAS_METRICS env vars as fallbacks when the flag
/// is absent.  Any other argument is an error: the binary exits with
/// status 1 before running anything.  The emitted document follows the
/// stable schema
///
///   { "schema": "perseas-bench/1", "bench": <name>,
///     "rows": [...per-bench row objects...], "metrics": <registry dump> }
///
/// Benches pass trace() into LabOptions (or Cluster::set_trace), export
/// their components' metrics into metrics(), add_row() per table row, and
/// call finish() once before exiting.
class Harness {
 public:
  Harness(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)), rows_(obs::Json::array()) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0) {
        trace_path_ = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        metrics_path_ = arg.substr(10);
      } else if (arg == "--quick") {
        quick_ = true;
      } else {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], argv[i]);
        std::exit(1);
      }
    }
    if (trace_path_.empty()) {
      if (const char* env = std::getenv("PERSEAS_TRACE"); env != nullptr) trace_path_ = env;
    }
    if (metrics_path_.empty()) {
      if (const char* env = std::getenv("PERSEAS_METRICS"); env != nullptr) metrics_path_ = env;
    }
    if (!trace_path_.empty()) recorder_.emplace();
    if (!metrics_path_.empty()) metrics_.emplace();
  }

  [[nodiscard]] bool quick() const noexcept { return quick_; }
  /// Sinks to hand to LabOptions; nullptr when the corresponding output is off.
  [[nodiscard]] obs::TraceRecorder* trace() noexcept { return recorder_ ? &*recorder_ : nullptr; }
  [[nodiscard]] obs::MetricsRegistry* metrics() noexcept {
    return metrics_ ? &*metrics_ : nullptr;
  }

  /// Appends one row object to the result document (no-op when metrics off).
  void add_row(obs::Json row) {
    if (metrics_) rows_.push(std::move(row));
  }

  /// Attaches the per-transaction cost-ledger section
  /// (obs::CostLedger::to_json() plus any bench-added fields such as
  /// "clock_delta_ns") to the result document.  No-op when metrics off.
  void set_ledger(obs::Json ledger) {
    if (!metrics_) return;
    ledger_ = std::move(ledger);
    has_ledger_ = true;
  }

  /// Writes the trace and metrics outputs.  Returns false if a file could
  /// not be written (the bench should exit nonzero so CI notices).
  bool finish() {
    bool ok = true;
    const auto write = [&ok](const std::string& path, const std::string& text) {
      try {
        obs::write_file("bench", path, text);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        ok = false;
      }
    };
    if (recorder_) write(trace_path_, recorder_->to_json());
    if (metrics_) {
      obs::Json doc = obs::Json::object();
      doc.set("schema", "perseas-bench/1");
      doc.set("bench", name_);
      doc.set("rows", std::move(rows_));
      if (has_ledger_) doc.set("ledger", std::move(ledger_));
      doc.set("metrics", metrics_->to_json());
      rows_ = obs::Json::array();
      has_ledger_ = false;
      write(metrics_path_,
            metrics_path_ == "-" ? "BENCH_JSON " + doc.dump() + "\n" : doc.dump(2) + "\n");
    }
    return ok;
  }

 private:
  std::string name_;
  std::string trace_path_;
  std::string metrics_path_;
  bool quick_ = false;
  std::optional<obs::TraceRecorder> recorder_;
  std::optional<obs::MetricsRegistry> metrics_;
  obs::Json rows_;
  obs::Json ledger_;
  bool has_ledger_ = false;
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("simulated hardware: forth_1997 (133 MHz Pentium, PCI-SCI, NT)\n");
  std::printf("================================================================\n");
}

inline void print_row(const char* name, double txns_per_second, double mean_us) {
  std::printf("%-28s %14.0f txns/s %12.2f us/txn\n", name, txns_per_second, mean_us);
}

}  // namespace perseas::bench

// The benchmark's workloads: each builds its PERSEAS substrate, runs
// closed-loop clients for a share of --seconds, checks its outputs, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, spans off.  true: per-layer metrics from an
  /// untraced and a traced phase of the same run.
  bool trace = false;
  /// Where the traced run writes its spans; empty = keep them in memory only.
  std::string spans_path;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< transactions and crash cycles attempted
  std::uint64_t failed = 0;     ///< of those, raised an error or failed a check
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload.  Correctness failures are reported in the result
/// (and on stderr); errors that leave no result to report throw.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench

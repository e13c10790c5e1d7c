// Exhaustive crash-consistency model checker (perseas::mc).
//
// The checker first runs the workload once with no failures armed
// (*discovery*), recording the FailureInjector hit counts that one clean
// execution produces.  That snapshot delta — every (point, hit-index) pair
// the engine actually executes — IS the explored state space: no hard-coded
// point lists, so new instrumentation is picked up automatically.  It then
// replays the identical workload once per (point, hit, failure kind)
// combination, crashes the application node at exactly that store, runs the
// engine's recovery path, and diffs the recovered database against an
// executable reference model:
//
//   atomicity   recovered image is states[t] or states[t+1], never a blend
//   durability  a crash at/after the commit point (or after the whole
//               workload) must preserve every acknowledged transaction
//   recovery    the recovery path itself completes without error, even when
//               a nested crash interrupts it (--nested)
//   hygiene     a second recovery applies nothing (no armed propagation
//               flag, no replayable log)
//
// Counterexamples are minimized to the shortest workload prefix that still
// reproduces them, so a report names the smallest failing schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_points.hpp"
#include "mc/fixture.hpp"
#include "mc/workload.hpp"
#include "sim/failure.hpp"

namespace perseas::mc {

/// The name used for the after-the-whole-workload durability sweep in
/// reports and --point reproduction filters.
inline constexpr std::string_view kPostWorkload = "post-workload";

struct McOptions {
  std::string engine = "perseas";
  std::string workload = "debit-credit";
  /// Workload body when workload == "scripted".
  std::string script;
  std::uint64_t txns = 4;
  std::uint64_t db_size = 1024;
  std::uint64_t seed = 0x1998;
  /// 1 = additionally crash once inside every recovery-path point reached
  /// by each base exploration (crash during recovery of a crash).
  unsigned nested = 0;
  /// Failure kinds to inject; empty = everything the engine's substrate can
  /// recover from (kinds it cannot are silently dropped).
  std::vector<sim::FailureKind> kinds;
  /// Self-test: seed the deliberate skip-flag-clear bug (PERSEAS_MC_SEED_BUG)
  /// for the duration of the run; the checker must then find violations.
  bool seed_bug = false;
  bool minimize = true;
  /// Stop after discovery: report the reachable failure points, explore
  /// nothing (tools/perseas-mc --list-points).
  bool discover_only = false;
  /// Reproduction filters: restrict exploration to one point (a registry
  /// name or kPostWorkload) and optionally one hit index from a previous
  /// report.  run() throws std::invalid_argument when they select no
  /// discovered schedule.
  std::string only_point;
  std::optional<std::uint64_t> only_hit;
};

struct McViolation {
  std::string point;  // "" for the post-workload durability sweep
  std::uint64_t hit = 0;
  sim::FailureKind kind = sim::FailureKind::kSoftwareCrash;
  bool nested = false;
  std::string nested_point;
  std::uint64_t nested_hit = 0;
  /// Transaction in flight when the crash fired (== txns for post-workload).
  std::uint64_t txn = 0;
  /// "atomicity" | "durability" | "recovery" | "hygiene" | "model"
  std::string invariant;
  std::string detail;
  /// Shortest workload prefix reproducing this violation (0 = not minimized).
  std::uint64_t minimized_txns = 0;
  /// Flight-recorder narrative of the failing exploration (last events
  /// before the invariant check fired), oldest-first.
  std::vector<std::string> timeline;
};

struct McResult {
  std::string engine;
  std::string workload;
  std::uint64_t txns = 0;
  std::uint64_t seed = 0;
  unsigned nested = 0;
  /// Discovery window: the hits the clean workload makes on every point.
  sim::FailureInjector::HitCounts points{};
  /// Recovery-path hits: per point, the most that any one base
  /// exploration's recovery made (filled only with nested > 0).
  sim::FailureInjector::HitCounts recovery_points{};
  std::uint64_t explorations = 0;
  std::uint64_t crashed = 0;
  std::uint64_t not_reached = 0;
  std::uint64_t nested_explorations = 0;
  std::uint64_t minimization_runs = 0;
  std::vector<McViolation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

class ModelChecker {
 public:
  explicit ModelChecker(McOptions options);

  /// Runs discovery + exploration and returns the full result.  Throws
  /// std::invalid_argument for unusable options (unknown engine/workload).
  McResult run();

 private:
  struct Combo;
  struct Outcome;

  void run_txn(workload::TxnEngine& engine, std::uint64_t txn_index);
  /// begin + ops of one transaction on `slot`, without the commit
  /// (interleaved schedule building block).
  void run_txn_ops(workload::TxnEngine& engine, std::uint64_t txn_index, std::uint32_t slot);
  /// Executes the first `txn_limit` transactions — serially, or in the
  /// interleaved two-slot schedule when the workload asks for it — keeping
  /// `crash_txn` equal to the atomicity boundary index throughout, so a
  /// crash escaping this function names the right states_ pair.
  void run_workload(workload::TxnEngine& engine, std::uint64_t txn_limit,
                    std::uint64_t& crash_txn);
  void discover(McResult& result);
  Outcome explore(const Combo& combo, std::uint64_t txn_limit,
                  std::optional<core::points::PointId> nested_point, std::uint64_t nested_hit,
                  bool want_recovery_window);
  void record_violation(McResult& result, const Combo& combo,
                        std::optional<core::points::PointId> nested_point,
                        std::uint64_t nested_hit, McViolation violation);
  std::uint64_t minimize(const Combo& combo, std::optional<core::points::PointId> nested_point,
                         std::uint64_t nested_hit, McResult& result);

  McOptions options_;
  McWorkloadSpec spec_;
  /// states_[t] = reference image after the first t transactions.
  std::vector<std::vector<std::byte>> states_;
  /// Engine capabilities, probed once per run.
  std::vector<core::points::PointId> committed_points_;
  std::vector<sim::FailureKind> kinds_;
};

/// One point a window hit, and how often.
struct PointHits {
  core::points::PointId point;
  std::uint64_t hits = 0;
};

/// The points `hits` counts at least once, in name order (the order
/// reports list them and the checker explores them).
[[nodiscard]] std::vector<PointHits> hit_rows(const sim::FailureInjector::HitCounts& hits);

/// Parses "software-crash" / "power-outage" / "hardware-fault" (also the
/// shorthands "software" / "power" / "hardware").
[[nodiscard]] std::optional<sim::FailureKind> failure_kind_from_name(std::string_view name);

}  // namespace perseas::mc

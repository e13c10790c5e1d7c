// The "debit-credit" banking benchmark of the paper's Table 1 — a TPC-B
// style workload (the paper: "processes banking transactions very similar
// to the TPC-B").
//
// The database holds branch, teller and account rows (100 bytes each, per
// TPC-B) plus a circular history file of 50-byte entries.  Each transaction
// picks a random teller (which fixes the branch), a random account and a
// random delta, updates the three balances, and appends a history entry —
// four small set_range/update pairs per transaction.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "workload/engine.hpp"
#include "workload/synthetic.hpp"  // WorkloadResult

namespace perseas::workload {

struct DebitCreditOptions {
  std::uint32_t branches = 4;
  std::uint32_t tellers_per_branch = 10;
  std::uint32_t accounts_per_branch = 10'000;
  std::uint32_t history_capacity = 16'384;
  /// Application-side compute per transaction (parse, validate, format) on
  /// the era-appropriate CPU.
  sim::SimDuration app_compute = sim::us(2.0);
};

class DebitCredit {
 public:
  /// TPC-B row and history-entry sizes.
  static constexpr std::uint64_t kRowBytes = 100;
  static constexpr std::uint64_t kHistoryBytes = 50;

  /// Database bytes needed for the given options (pass to the engine).
  [[nodiscard]] static std::uint64_t required_db_size(const DebitCreditOptions& options);

  DebitCredit(TxnEngine& engine, const DebitCreditOptions& options, std::uint64_t seed = 7);

  /// Writes the initial table contents (one setup transaction).
  void load();

  /// One debit-credit transaction; returns its simulated latency.
  sim::SimDuration run_one();

  WorkloadResult run(std::uint64_t n);

  /// One pre-picked debit-credit transaction, for drivers (the threaded
  /// frontend) that must pick and apply without touching DebitCredit's
  /// mutable state.  history_slot is an absolute slot in the history file;
  /// the shared history cursor is never advanced by a plan.
  struct TxnPlan {
    std::uint64_t branch = 0;
    std::uint64_t teller = 0;
    std::uint64_t account = 0;
    std::int64_t delta = 0;
    std::uint64_t history_slot = 0;
  };

  /// Picks a transaction for partition `part` of `parts`: partitions own
  /// the branches congruent to them modulo `parts` (tellers and accounts
  /// follow their branch) and disjoint windows of the history file, so
  /// plans from different partitions never overlap.  `seq` indexes the
  /// partition's history window (one slot per committed transaction,
  /// wrapping).  With `raid_partition0` the plan instead targets
  /// partition 0's first branch (branch 0): its declaration deterministically
  /// overlaps whatever partition 0 — or a pre-held victim claim — holds
  /// there, exercising the first-writer-wins conflict path from another
  /// thread.  Thread-safe: reads only immutable options, draws from the
  /// caller's rng.
  [[nodiscard]] TxnPlan plan_partitioned(std::uint32_t part, std::uint32_t parts,
                                         std::uint64_t seq, sim::Rng& rng,
                                         bool raid_partition0 = false) const;

  /// Applies `plan` inside the already-begun transaction of engine slot
  /// `slot`: three balance adjustments plus the plan's history entry.
  /// Thread-safe for plans with disjoint write sets: mutates no DebitCredit
  /// state — fold the delta in with add_committed_delta() after the commit
  /// (threaded drivers: after join, per-worker sums).  Throws TxnConflict
  /// (table untouched for the losing declaration) if the plan overlaps
  /// another open transaction's claims; the caller aborts the slot and
  /// retries with a fresh plan.
  void apply_plan(std::uint32_t slot, const TxnPlan& plan) const;

  /// Folds the delta of a committed plan into the invariant bookkeeping
  /// (sum of balances == sum of committed deltas).  Not thread-safe: call
  /// from the coordinating thread (e.g. once per worker after join).
  void add_committed_delta(std::int64_t delta) noexcept { total_delta_ += delta; }

  /// Consistency invariant: the sum of balances at every level equals the
  /// sum of all applied deltas.  Throws std::logic_error on violation.
  void check_invariants() const;

  [[nodiscard]] std::int64_t expected_total() const noexcept { return total_delta_; }

 private:
  // Rows are stored at exact TPC-B sizes (100 and 50 bytes), so the structs
  // are packed; all access goes through memcpy, never through misaligned
  // pointers.
  struct [[gnu::packed]] Row {
    std::uint64_t id;
    std::int64_t balance;
    std::byte filler[kRowBytes - 16];
  };
  static_assert(sizeof(Row) == kRowBytes);

  struct [[gnu::packed]] History {
    std::uint64_t account;
    std::uint64_t teller;
    std::uint64_t branch;
    std::int64_t delta;
    std::byte filler[kHistoryBytes - 32];
  };
  static_assert(sizeof(History) == kHistoryBytes);

  [[nodiscard]] std::uint64_t branch_offset(std::uint64_t b) const;
  [[nodiscard]] std::uint64_t teller_offset(std::uint64_t t) const;
  [[nodiscard]] std::uint64_t account_offset(std::uint64_t a) const;
  [[nodiscard]] std::uint64_t history_offset(std::uint64_t h) const;
  [[nodiscard]] std::uint64_t cursor_offset() const;

  TxnEngine* engine_;
  DebitCreditOptions options_;
  sim::Rng rng_;
  std::uint64_t history_cursor_ = 0;
  std::int64_t total_delta_ = 0;
};

}  // namespace perseas::workload

// The multi-threaded transaction frontend: N OS worker threads driving one
// shared engine through the TxnEngine slot API.
//
// This is the harness the paper's argument has been waiting for — PERSEAS
// claims transactions light enough for ordinary applications under real
// load.  Both threaded workloads below run on one worker pool: worker w
// owns engine slot w, its own sim::Rng stream (seeded from seed + w) and
// its own sim::ThreadClock, and commits txns_per_thread transactions.  A
// workload is only its per-attempt body (begin, do the work, charge app
// compute, commit); the pool owns everything around it — the start gate,
// the thread spawn, the retry loop (abort the slot on core::TxnConflict,
// count the loss by AbortReason, back off, retry), the attempt cap, error
// propagation and the fold of per-worker results.
//
// Time under threads.  Each worker runs behind a sim::ThreadClock: its
// simulated charges accumulate thread-locally and fold into the shared
// clock at each commit/conflict (see clock.hpp).  The shared clock is the
// TOTAL simulated work — obs::CostLedger conservation still holds exactly
// — while per-worker busy time measures the parallel timeline: the
// workload's simulated makespan is max over workers of busy_ns, and the
// disjoint-workload speedup of N threads is total_work / makespan ≈ N.
// Per-worker latencies are NOT deterministic at threads > 1, not even on
// disjoint partitions: a worker's undo pushes land wherever the shared
// undo-log tail stands when it takes the log's lock, thread interleaving
// decides that, and an SCI push's cost depends on where its bytes fall
// against the 64-byte buffers.  Only one worker's run is reproducible
// (WorkerPool.OneWorkerLatenciesAreTheSameOnEveryFreshLab); what holds
// exactly at every thread count is the conservation of simulated time and
// every counter.
//
// The pool follows the classic ready/start/quit benchmark shape: every
// thread parks on an atomic start gate after setup so measurement begins
// with all workers live, and a quit flag lets the coordinator stop a run
// early (error propagation) without waiting out the loop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_time.hpp"
#include "sim/stats.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engine.hpp"

namespace perseas::workload {

/// The knobs every pooled workload shares.
struct PoolOptions {
  /// Worker threads; each needs an engine slot (threads <= max_open_txns()).
  std::uint32_t threads = 4;
  /// Commits each worker must reach (losses are retried).
  std::uint64_t txns_per_thread = 100;
  /// Worker w draws from sim::Rng(SplitMix64(seed + w)).
  std::uint64_t seed = 42;
  /// Application-side compute charged per transaction attempt (matches
  /// DebitCreditOptions::app_compute).
  sim::SimDuration app_compute = sim::us(2.0);
};

/// One worker's tally, aggregated by the coordinator after join.
struct WorkerResult {
  std::uint32_t worker = 0;              ///< 0-based worker index (= engine slot)
  std::uint64_t commits = 0;
  std::uint64_t conflicts = 0;           ///< all TxnConflict losses, each aborted + retried
  std::uint64_t wounded = 0;             ///< wait-die wound aborts
  std::uint64_t validation_failed = 0;   ///< OCC backward-validation aborts
  sim::SimDuration busy_ns = 0;          ///< the worker's own simulated timeline
  std::vector<sim::SimDuration> latencies;  ///< per-commit, in issue order
};

/// A whole pooled run: the per-worker rows and their fold, in worker order.
struct PoolResult {
  std::vector<WorkerResult> workers;
  std::uint64_t commits = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t wounded = 0;
  std::uint64_t validation_failed = 0;
  /// The parallel timeline: max over workers of busy_ns.  Throughput =
  /// commits / makespan.
  sim::SimDuration makespan_ns = 0;
  /// Sum over workers of busy_ns — the work the shared clock absorbed on
  /// behalf of the run; total_work / makespan is the achieved speedup.
  sim::SimDuration total_work_ns = 0;
  /// All workers' latencies folded in worker order (deterministic).
  sim::LatencyRecorder latency;

  [[nodiscard]] double txns_per_second() const noexcept {
    return makespan_ns > 0 ? static_cast<double>(commits) * 1e9 /
                                 static_cast<double>(makespan_ns)
                           : 0.0;
  }
};

// Names the perfbench harness still uses; to be retired with its next change.
using MtWorkerResult = WorkerResult;
using ContentionWorkerResult = WorkerResult;
using MtResult = PoolResult;
using ContentionResult = PoolResult;

// --- the debit-credit workload ---------------------------------------------
// Worker w owns partition w of the bank (branches ≡ w mod threads, a
// disjoint history window), so the disjoint workload commits with no
// coordination beyond the engine's own locks; the conflict mode makes
// workers deliberately raid partition 0 to exercise first-writer-wins from
// a different thread than the victim.  A lost attempt retries at once with
// a fresh pick from the worker's own partition.

struct MtOptions : PoolOptions {
  /// Every k-th transaction of workers 1..N-1 raids partition 0 instead of
  /// its own partition (0 disables).  The raid loses to whoever holds the
  /// contested rows, is aborted, and retried as a fresh disjoint pick, so
  /// commits always reach threads × txns_per_thread.
  std::uint64_t conflict_every = 0;
};

/// Runs the debit-credit workload on options.threads workers (each also
/// needs a bank partition: threads <= branches).  `bank` must be load()ed;
/// on return its committed deltas are folded in, so bank.check_invariants()
/// holds.  Worker exceptions are re-thrown on the calling thread (after all
/// threads have been joined).
PoolResult run_mt_debit_credit(TxnEngine& engine, DebitCredit& bank, const MtOptions& options);

// --- the contention workload -----------------------------------------------
// Skewed read/write transactions over a flat row space, built to make the
// concurrency-control policies disagree: a workload::FastZipf picks rows
// (theta 0 = uniform .. 0.99 = hot spot), each operation writes with
// probability write_ratio (else declares a read), and a long_fraction of
// transactions touch long_ops rows instead of short_ops — the classic
// short-vs-long mix where wait-die wounds the young and validation punishes
// the long reader.  Row claims are whole rows, so conflicts are exactly
// same-row collisions.  A lost attempt backs off on the worker's simulated
// timeline (1 µs, doubling per consecutive loss up to 64 µs) — under a hot
// spot an immediate retry re-collides with the claim it just lost to — and
// retries with fresh row picks.

struct ContentionOptions : PoolOptions {
  /// Row space; rows * row_bytes must fit the engine's database.
  std::uint64_t rows = 1024;
  std::uint64_t row_bytes = 64;
  /// Zipf skew over rows, in [0, 1): 0 uniform, >= 0.9 hot-spot.
  double theta = 0.0;
  /// Probability an operation writes its row; reads only join the read set.
  double write_ratio = 0.5;
  /// Rows touched by a short / long transaction, and the long share.
  std::uint32_t short_ops = 4;
  std::uint32_t long_ops = 32;
  double long_fraction = 0.1;
};

/// Runs the contention workload on options.threads workers.  Every worker
/// reaches txns_per_thread commits, or the run throws std::runtime_error
/// once one transaction has lost 100,000 attempts (a livelocked policy).
PoolResult run_contention(TxnEngine& engine, const ContentionOptions& options);

}  // namespace perseas::workload

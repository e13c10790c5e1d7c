// Configuration and statistics of one PERSEAS database instance.
//
// Split out of core/perseas.hpp so the collaborating components
// (core/undo_log.hpp, core/mirror_set.hpp) can consume them without
// pulling in the full orchestration class.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/thread_shards.hpp"
#include "sim/sim_time.hpp"

namespace perseas::core {

/// Which concurrency-control policy arbitrates between concurrently open
/// transactions (core/cc_policy.hpp).  All three keep declare-time write
/// exclusion as the *mechanism* (in-place updates share one local mapping,
/// so two live writers on the same bytes would corrupt each other's
/// before-images regardless of policy); they differ in what a collision
/// *means* and in when reads are judged.
enum class CcPolicyKind {
  /// The historical default: the later declaration loses immediately
  /// (TxnConflict, AbortReason::kConflict).  Bit-identical costs to the
  /// pre-policy code.
  kFirstWriterWins,
  /// Timestamp-ordered (begin order): an older requester waits a bounded
  /// slice of simulated time (PerseasConfig::cc_wait) and retries; a
  /// younger requester dies immediately (AbortReason::kWounded).
  kWaitDie,
  /// OCC: reads are optimistic (Transaction::read_range tracks them
  /// without locking); commit backward-validates the read set against
  /// every write set committed since this transaction began and aborts
  /// with AbortReason::kValidationFailed on intersection.
  kValidateAtCommit,
};

struct PerseasConfig {
  /// Name of this database: namespaces its segment keys on the mirrors, so
  /// several PERSEAS databases can share one remote-memory server.  The
  /// same name must be passed to recover().
  std::string name = "p";
  /// Initial capacity of the (local and remote) undo log; grows by doubling
  /// when the open transactions log more than this.
  std::uint64_t undo_capacity = 1 << 20;
  /// Capacity of the metadata directory (max persistent_malloc calls).
  std::uint32_t max_records = 256;
  /// Paper behaviour (true): push each undo image to the mirrors inside
  /// set_range.  false = lazy: push all undo images at the start of commit
  /// (ablation; shrinks the recovery window guarantees to the same point
  /// but changes where the latency is paid).
  bool eager_remote_undo = true;
  /// Use the aligned-64-byte sci_memcpy optimization (paper section 4).
  bool optimized_sci_memcpy = true;
  /// Coalesce the write set (default on): set_range calls that overlap or
  /// duplicate earlier declarations log a before-image only for the bytes
  /// not already covered, and commit propagates each record's merged,
  /// sorted dirty ranges exactly once, gathered into shared SCI bursts.
  /// Keeps figure 3's three-copies promise per *byte* instead of per
  /// declaration.  false restores the historical one-entry-per-set_range
  /// behaviour (the fig6 ablation baseline); recovery handles both log
  /// formats.  The environment variable PERSEAS_COALESCE=0/1 overrides the
  /// config (CI runs both legs of the bench-obs job with it).
  bool coalesce_ranges = true;
  /// Install check::TxnValidator on this instance: every record is
  /// snapshotted at begin_transaction and commit verifies that all
  /// modified bytes were covered by set_range (raising
  /// check::CoverageError otherwise), that abort restored the snapshot,
  /// and that remote undo entries byte-match the local log.  Debug/test
  /// facility: costs real memory and CPU per transaction but charges no
  /// simulated time.  Off by default; the environment variable
  /// PERSEAS_VALIDATE_WRITES=1 force-enables it (CI sanitizer runs).
  bool validate_writes = false;
  /// Concurrency-control policy for concurrently open transactions.  The
  /// environment variable PERSEAS_CC=fww|wait-die|validate overrides the
  /// config (like PERSEAS_COALESCE: the CI model-check legs could not
  /// select a policy otherwise).
  CcPolicyKind cc_policy = CcPolicyKind::kFirstWriterWins;
  /// Simulated time a wait-die older requester waits before its retry
  /// throw — the "wait" half of wait-die, modelled in virtual time (a host
  /// thread never blocks on a simulated holder).  Charged through
  /// sim::SimClock::wait, so ledger conservation sees it.
  sim::SimDuration cc_wait = sim::us(5.0);
};

/// The accumulated counters of one instance.  Each thread books into its
/// own shard (PerseasStatShards); Perseas::stats() merges them.
struct PerseasStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  /// Operations rejected with TxnConflict for *any* AbortReason: a
  /// declaration lost to another open transaction's claim, a wait-die
  /// wound, or a failed commit-time validation.  The caller aborts and
  /// retries.  txns_wounded and txns_validation_failed below are subsets.
  std::uint64_t txns_conflicted = 0;
  std::uint64_t set_ranges = 0;
  std::uint64_t bytes_undo_local = 0;
  std::uint64_t bytes_undo_remote = 0;  // summed over mirrors
  std::uint64_t bytes_propagated = 0;   // summed over mirrors
  std::uint64_t undo_growths = 0;
  std::uint64_t mirror_rebuilds = 0;
  /// High-water mark of concurrently open transactions (1 for a sequential
  /// application; >1 only when the multi-transaction mode is exercised).
  std::uint64_t max_open_txns = 0;

  // Write-set coalescing (PerseasConfig::coalesce_ranges).  The byte
  // counters above always equal the traffic actually charged to the
  // cluster; these record what coalescing saved relative to the historical
  // one-entry-per-set_range behaviour, plus how the commit traffic was
  // bursted.
  std::uint64_t ranges_coalesced = 0;       ///< set_range calls overlapping the declared union
  std::uint64_t bytes_dedup_undo = 0;       ///< before-image bytes skipped (already covered)
  std::uint64_t bytes_dedup_propagated = 0; ///< propagation bytes saved (summed over mirrors)
  std::uint64_t undo_writes = 0;            ///< SCI store ops pushing undo entries (all mirrors)
  std::uint64_t propagate_writes = 0;       ///< SCI store ops issued by propagation (all mirrors)

  // Concurrency control (PerseasConfig::cc_policy).  txns_conflicted above
  // counts every rejection regardless of reason; these break the losses
  // down per AbortReason and account for wait-die's simulated waiting.
  // All stay zero under the default first-writer-wins policy.
  std::uint64_t txns_wounded = 0;            ///< wait-die: younger requester died
  std::uint64_t txns_validation_failed = 0;  ///< OCC: commit-time backward validation failed
  std::uint64_t cc_waits = 0;                ///< wait-die: charged waits before a retry throw
  std::uint64_t read_ranges = 0;             ///< Transaction::read_range declarations tracked

  // Simulated time spent per protocol phase (figure 3's three copies plus
  // the commit-point stores): lets benches print where a transaction's
  // microseconds go.
  sim::SimDuration time_local_undo = 0;      // step 1: before-image memcpy
  sim::SimDuration time_remote_undo = 0;     // step 2: undo push to mirrors
  sim::SimDuration time_propagation = 0;     // step 3: db ranges to mirrors
  sim::SimDuration time_commit_flags = 0;    // propagating set/clear stores
  sim::SimDuration time_cc_wait = 0;         // wait-die waiting before retry throws
  sim::SimDuration time_validate = 0;        // commit-time validate phase
};

/// Merges one thread's shard into `a`: every counter sums, except the
/// high-water mark max_open_txns, which takes the larger.
inline PerseasStats& operator+=(PerseasStats& a, const PerseasStats& b) noexcept {
  static_assert(sizeof(PerseasStats) == 25 * sizeof(std::uint64_t),
                "a new PerseasStats field must join this merge");
  a.txns_committed += b.txns_committed;
  a.txns_aborted += b.txns_aborted;
  a.txns_conflicted += b.txns_conflicted;
  a.set_ranges += b.set_ranges;
  a.bytes_undo_local += b.bytes_undo_local;
  a.bytes_undo_remote += b.bytes_undo_remote;
  a.bytes_propagated += b.bytes_propagated;
  a.undo_growths += b.undo_growths;
  a.mirror_rebuilds += b.mirror_rebuilds;
  a.max_open_txns = std::max(a.max_open_txns, b.max_open_txns);
  a.ranges_coalesced += b.ranges_coalesced;
  a.bytes_dedup_undo += b.bytes_dedup_undo;
  a.bytes_dedup_propagated += b.bytes_dedup_propagated;
  a.undo_writes += b.undo_writes;
  a.propagate_writes += b.propagate_writes;
  a.txns_wounded += b.txns_wounded;
  a.txns_validation_failed += b.txns_validation_failed;
  a.cc_waits += b.cc_waits;
  a.read_ranges += b.read_ranges;
  a.time_local_undo += b.time_local_undo;
  a.time_remote_undo += b.time_remote_undo;
  a.time_propagation += b.time_propagation;
  a.time_commit_flags += b.time_commit_flags;
  a.time_cc_wait += b.time_cc_wait;
  a.time_validate += b.time_validate;
  return a;
}

/// Per-thread PerseasStats: the instance and its components book through
/// local(), reads merge.
using PerseasStatShards = sync::ThreadShards<PerseasStats>;

}  // namespace perseas::core

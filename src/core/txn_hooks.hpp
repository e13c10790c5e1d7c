// Observation points of the PERSEAS transaction protocol.
//
// The library's correctness contract is *unchecked* by default: every
// in-place write to a mapped record inside a transaction must be covered by
// a prior set_range, or the write commits fine but is silently
// unrecoverable after a crash.  A TxnObserver installed on a Perseas
// instance (via PerseasConfig::validate_writes, which installs
// check::TxnValidator) sees every protocol step and can veto a commit by
// throwing.
//
// The interface is deliberately data-only: observers receive spans and ids,
// never a back-pointer into Perseas, so the observer cannot perturb the
// protocol.  Every hook carries the owning transaction's id — with several
// transactions open concurrently the hooks of different transactions
// interleave, and observers demultiplex on txn_id.  No hook charges
// simulated time or network traffic — validation is invisible to the cost
// model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace perseas::core {

/// One record's live local bytes, as shown to a TxnObserver.
struct TxnRecordView {
  std::uint32_t index = 0;
  std::span<const std::byte> bytes;
};

/// Counters kept by an observer.  All stay zero when no observer is
/// installed (PerseasConfig::validate_writes == false): the hooks are
/// guarded by a null check and take no snapshots at all.
struct TxnObserverStats {
  std::uint64_t txns_observed = 0;      ///< on_begin calls
  std::uint64_t snapshots_taken = 0;    ///< records snapshotted at begin
  std::uint64_t snapshot_bytes = 0;     ///< bytes copied for those snapshots
  std::uint64_t ranges_tracked = 0;     ///< set_range declarations seen
  std::uint64_t commits_checked = 0;    ///< commits diffed against snapshots
  std::uint64_t aborts_checked = 0;     ///< aborts verified byte-identical
  std::uint64_t undo_crosschecks = 0;   ///< remote undo entries byte-compared
  std::uint64_t uncovered_writes = 0;   ///< CoverageErrors raised
  std::uint64_t unused_ranges = 0;      ///< declared-but-untouched warnings
};

/// Hook interface called from Perseas's transaction backends.  Hooks run
/// synchronously on the transaction path; on_commit runs *before* any
/// remote propagation, so a throwing observer leaves the transaction
/// active and both database images untouched.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;

  /// A transaction opened; `records` is the full directory at that instant
  /// (persistent_malloc is illegal inside a transaction, so it is stable
  /// until on_commit / on_abort).
  virtual void on_begin(std::uint64_t txn_id, std::span<const TxnRecordView> records) = 0;

  /// set_range declared [offset, offset+size) of `record`, after argument
  /// validation and before any before-image is logged.  The hook always
  /// sees the raw declaration; with write-set coalescing on (the default)
  /// the library then logs before-images only for the sub-ranges not
  /// already covered by this transaction's earlier declarations.
  virtual void on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                            std::uint64_t size) = 0;

  /// One undo entry was pushed to one mirror: `serialized` is the local
  /// serialization (header + padded image), `remote` the bytes now present
  /// at the same position of that mirror's undo segment.  Under coalescing
  /// a declaration may push zero entries (fully covered) or several (one
  /// per uncovered sub-range); the hook fires once per entry per mirror,
  /// on the lazy commit path too.
  virtual void on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                            std::span<const std::byte> remote) = 0;

  /// Commit was requested but nothing has been propagated yet.  May throw
  /// (e.g. check::CoverageError) to veto the commit.
  virtual void on_commit(std::uint64_t txn_id, std::span<const TxnRecordView> records) = 0;

  /// Abort finished restoring the declared before-images locally.
  virtual void on_abort(std::uint64_t txn_id, std::span<const TxnRecordView> records) = 0;

  /// Commit finished: every mirror's flag is cleared and the transaction is
  /// durable (also fired for read-only commits).  on_commit, by contrast,
  /// runs *before* propagation; the pair brackets the commit's cost.
  virtual void on_commit_complete(std::uint64_t txn_id) { (void)txn_id; }

  [[nodiscard]] virtual const TxnObserverStats& stats() const noexcept = 0;
};

}  // namespace perseas::core

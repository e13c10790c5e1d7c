// Write-set validator for the PERSEAS undo-coverage contract.
//
// PERSEAS (like RVM) requires that every in-place write to a mapped record
// inside a transaction be covered by a prior set_range.  An uncovered write
// commits without complaint but is invisible to the undo log: it is not
// rolled back on abort and not propagated on commit, so the database is
// silently unrecoverable after a crash — the classic bug class of
// undo-log persistent-memory systems.
//
// TxnValidator makes the contract machine-checked.  Installed on a Perseas
// instance (PerseasConfig::validate_writes, or PERSEAS_VALIDATE_WRITES),
// it is called at every protocol step and
//
//   * snapshots every record's bytes at begin_transaction,
//   * tracks the union of declared set_range intervals (merging duplicates
//     and overlaps),
//   * at commit diffs the records against their snapshots and raises
//     CoverageError — naming record, offset, and length — for the first
//     modified byte run not inside the declared union,
//   * warns (a counter plus a retrievable message) about declared ranges
//     whose bytes never changed: wasted undo bandwidth, the dominant
//     per-transaction cost in the paper's figure 6 model,
//   * verifies after every remote undo push that the mirror's serialized
//     entry byte-matches the local serialization and that its embedded
//     CRC-32C is internally consistent,
//   * verifies after abort that every record is byte-identical to its
//     begin snapshot.
//
// Transactions may be open concurrently; the validator keeps one session
// per open transaction, keyed by txn id.  A session's snapshot is taken
// while *neighbour* transactions may already have written their declared
// ranges (and may write, commit, or roll them back later), so each session
// also accumulates the "foreign" ranges its open neighbours declared —
// copied at begin and extended on every later neighbour declare.  The
// commit diff tolerates modifications inside own-union-foreign (the
// conflict table guarantees the two are disjoint); the abort diff
// tolerates foreign only, keeping the rollback check for the
// transaction's own ranges exactly as strict as before.  A session stays
// open past its commit diff until the commit completes: the commit can
// still fail validation, and the caller's abort then rolls the ranges
// back, which every neighbour that began meanwhile must tolerate.  With
// at most one transaction open the foreign sets stay empty and every
// check reduces to the historical single-transaction behaviour.
//
// The validator performs plain local computation only: it never touches
// the cluster, charges no simulated time, and adds no network traffic.
// Its hooks receive spans and ids, never a back-pointer into Perseas, and
// every hook carries the owning transaction's id: with several
// transactions open the calls of different transactions interleave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/range_set.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::check {

/// One record's live local bytes, as shown to the validator.
struct TxnRecordView {
  std::uint32_t index = 0;
  std::span<const std::byte> bytes;
};

/// The validator's counters.  Perseas::validator_stats() reports all zero
/// when no validator is installed: the hooks are guarded by a null check
/// and take no snapshots at all.
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

/// Base class of everything TxnValidator raises.
class ValidationError : public core::PerseasError {
 public:
  using PerseasError::PerseasError;
};

/// A modified byte run inside a transaction was not covered by set_range.
/// Carries the exact location so tests and tooling can pinpoint the write.
class CoverageError : public ValidationError {
 public:
  CoverageError(std::uint32_t record, std::uint64_t offset, std::uint64_t length);

  [[nodiscard]] std::uint32_t record() const noexcept { return record_; }
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::uint64_t length() const noexcept { return length_; }

 private:
  std::uint32_t record_;
  std::uint64_t offset_;
  std::uint64_t length_;
};

/// The remote undo log's bytes do not match the local serialization (or an
/// entry's embedded checksum is inconsistent with its own payload).
class UndoMismatchError : public ValidationError {
 public:
  using ValidationError::ValidationError;
};

/// After abort, a record's bytes differ from its begin_transaction
/// snapshot — an uncovered write survived the rollback.
class SnapshotMismatchError : public ValidationError {
 public:
  using ValidationError::ValidationError;
};

class TxnValidator {
 public:
  TxnValidator() = default;

  /// A transaction opened; `records` is the full directory at that instant
  /// (persistent_malloc is illegal inside a transaction, so it is stable
  /// until on_commit / on_abort).
  void on_begin(std::uint64_t txn_id, std::span<const TxnRecordView> records);
  /// set_range declared [offset, offset+size) of `record`, after argument
  /// validation and before any before-image is logged.  The validator
  /// always sees the raw declaration; with write-set coalescing on the
  /// library then logs only the sub-ranges not already covered.
  void on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                    std::uint64_t size);
  /// One undo entry was pushed to one mirror: `serialized` is the local
  /// serialization (header + padded image), `remote` the bytes now at the
  /// same position of that mirror's undo segment.  Called once per entry
  /// per mirror, on the lazy commit path too.
  void on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                    std::span<const std::byte> remote);
  /// Commit was requested but nothing has been propagated yet; throws
  /// (CoverageError) to veto it, leaving the transaction active and both
  /// database images untouched.
  void on_commit(std::uint64_t txn_id, std::span<const TxnRecordView> records);
  /// Abort finished restoring the declared before-images locally.
  void on_abort(std::uint64_t txn_id, std::span<const TxnRecordView> records);
  /// Commit finished: every mirror's flag is cleared (also called for
  /// read-only commits).
  void on_commit_complete(std::uint64_t txn_id) { close(txn_id); }

  [[nodiscard]] const TxnObserverStats& stats() const noexcept { return stats_; }

  /// Folds the counters into `reg` as perseas_validator_* metrics
  /// labelled `labels`.
  void export_metrics(obs::MetricsRegistry& reg, const std::string& labels) const;

  /// True while at least one transaction's session is armed (between its
  /// on_begin and the matching on_commit_complete / on_abort; a validation
  /// error disarms every session).
  [[nodiscard]] bool tracking() const noexcept { return !sessions_.empty(); }

  /// The merged, sorted declared ranges of `record`, unioned across every
  /// open transaction (empty when none / not tracking).  Exposed for tests.
  [[nodiscard]] std::vector<core::ByteRange> declared_ranges(std::uint32_t record) const;

  /// Human-readable warnings accumulated across transactions (one per
  /// declared-but-untouched range).  Never cleared by the validator.
  [[nodiscard]] const std::vector<std::string>& warnings() const noexcept { return warnings_; }

 private:
  struct TrackedRecord {
    std::uint32_t index = 0;
    std::vector<std::byte> snapshot;
    std::vector<core::ByteRange> ranges;          // own declares, sorted + coalesced
    std::vector<core::ByteRange> foreign_ranges;  // open neighbours' declares
  };

  /// One open transaction's tracking state.
  struct Session {
    std::uint64_t txn_id = 0;
    std::vector<TrackedRecord> tracked;
  };

  [[nodiscard]] Session* find(std::uint64_t txn_id) noexcept;
  void close(std::uint64_t txn_id) noexcept;
  void disarm() noexcept;

  TxnObserverStats stats_;
  std::vector<Session> sessions_;
  std::vector<std::string> warnings_;
};

}  // namespace perseas::check

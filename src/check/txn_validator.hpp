// Write-set validator for the PERSEAS undo-coverage contract.
//
// PERSEAS (like RVM) requires that every in-place write to a mapped record
// inside a transaction be covered by a prior set_range.  An uncovered write
// commits without complaint but is invisible to the undo log: it is not
// rolled back on abort and not propagated on commit, so the database is
// silently unrecoverable after a crash — the classic bug class of
// undo-log persistent-memory systems.
//
// TxnValidator makes the contract machine-checked.  Installed as the
// instance's TxnObserver (PerseasConfig::validate_writes), it
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
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/range_set.hpp"
#include "core/txn_hooks.hpp"

namespace perseas::check {

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

/// Half-open byte interval [offset, offset + size) within one record.
/// The interval-merge machinery lives in core::range_set.hpp, where the
/// commit hot path's coalescing layer shares it; the alias keeps this
/// module's historical spelling working.
using ByteRange = core::ByteRange;

class TxnValidator final : public core::TxnObserver {
 public:
  TxnValidator() = default;

  void on_begin(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                    std::uint64_t size) override;
  void on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                    std::span<const std::byte> remote) override;
  void on_commit(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_abort(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_commit_complete(std::uint64_t txn_id) override { close(txn_id); }

  [[nodiscard]] const core::TxnObserverStats& stats() const noexcept override { return stats_; }

  /// True while at least one transaction's session is armed (between its
  /// on_begin and the matching on_commit_complete / on_abort; a validation
  /// error disarms every session).
  [[nodiscard]] bool tracking() const noexcept { return !sessions_.empty(); }

  /// The merged, sorted declared ranges of `record`, unioned across every
  /// open transaction (empty when none / not tracking).  Exposed for tests.
  [[nodiscard]] std::vector<ByteRange> declared_ranges(std::uint32_t record) const;

  /// Human-readable warnings accumulated across transactions (one per
  /// declared-but-untouched range).  Never cleared by the validator.
  [[nodiscard]] const std::vector<std::string>& warnings() const noexcept { return warnings_; }

 private:
  struct TrackedRecord {
    std::uint32_t index = 0;
    std::vector<std::byte> snapshot;
    std::vector<ByteRange> ranges;          // own declares, sorted + coalesced
    std::vector<ByteRange> foreign_ranges;  // open neighbours' declares
  };

  /// One open transaction's tracking state.
  struct Session {
    std::uint64_t txn_id = 0;
    std::vector<TrackedRecord> tracked;
  };

  [[nodiscard]] Session* find(std::uint64_t txn_id) noexcept;
  void close(std::uint64_t txn_id) noexcept;
  void disarm() noexcept;

  core::TxnObserverStats stats_;
  std::vector<Session> sessions_;
  std::vector<std::string> warnings_;
};

}  // namespace perseas::check

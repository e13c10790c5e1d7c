// Pluggable concurrency control for concurrently open PERSEAS transactions.
//
// PR 5 generalized the paper's single-writer protocol into first-writer-
// wins conflict detection, but hard-coded the policy inside ConflictTable —
// the system could only ever lose one way under contention.  This layer
// extracts the *decision* from the *mechanism*: every policy keeps the
// claim table's declare-time write exclusion (in-place updates share one
// local mapping, so two live writers on the same bytes would corrupt each
// other's before-images no matter what the policy says), and the policy
// decides what a collision means — lose now (first-writer-wins), order by
// timestamp (wait-die), or shift the judgement of *reads* to commit time
// (validate-at-commit OCC).
//
// Perseas consults the policy at four protocol moments (on_declare from
// set_range, which holds no lock of the instance, so the policy guards its
// own state; the others under the orchestration lock), and performs every
// observable action (stats, flight
// events, simulated charges, failure-point notifies, the TxnConflict
// throw) itself — the policy is pure decision logic, which keeps the
// static verifier's call graph (tools/perseas-verify.py) anchored in
// core/perseas.cpp and the default policy's cost trajectory bit-identical
// to the pre-policy code:
//
//   on_begin    txn ids are assigned in begin order, so they double as the
//               wait-die timestamps and the OCC begin snapshot;
//   on_declare  decide-on-declare: grant the claim or reject with a
//               reason (and, for wait-die's older requester, a bounded
//               simulated wait to charge before the retry throw);
//   on_validate decide-on-commit: the OCC backward validation — a no-op
//               returning "valid" for the declare-time policies;
//   on_commit / on_release
//               commit and abort hooks: record the committed write set
//               (OCC history) and drop the transaction's claims.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/conflict_table.hpp"
#include "core/perseas_config.hpp"
#include "core/range_set.hpp"
#include "core/txn_context.hpp"
#include "sim/sim_time.hpp"

namespace perseas::core {

/// A declare-time rejection: why, who holds the bytes, and how much
/// simulated waiting the requester owes before its retry throw (wait-die's
/// older requester; 0 for everyone else).
struct CcRejection {
  AbortReason reason = AbortReason::kConflict;
  std::uint64_t holder = 0;
  sim::SimDuration wait = 0;
};

class CcPolicy {
 public:
  virtual ~CcPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// A transaction opened; `txn` ids are handed out in begin order.
  virtual void on_begin(std::uint64_t txn) = 0;

  /// Decide-on-declare: claim [offset, offset+size) of `record` for `txn`,
  /// or reject.  A granted declare leaves the claim in the table until
  /// on_release; a rejection leaves the table unchanged.
  [[nodiscard]] virtual std::optional<CcRejection> on_declare(std::uint64_t txn,
                                                              std::uint32_t record,
                                                              std::uint64_t offset,
                                                              std::uint64_t size) = 0;

  /// Decide-on-commit: returns 0 when `ctx` may commit, else the id of a
  /// transaction that committed a write overlapping ctx's read set since
  /// ctx began (OCC backward validation).  Constant-time "valid" for the
  /// declare-time policies.
  [[nodiscard]] virtual std::uint64_t on_validate(const TxnContext& ctx) = 0;

  /// `ctx` committed (called before its claims are released): policies
  /// that validate later transactions against committed write sets record
  /// a snapshot here.
  virtual void on_commit(const TxnContext& ctx) = 0;

  /// Drops every claim (and per-transaction bookkeeping) of `txn` —
  /// commit, abort, and conflict-retry all funnel through here.
  virtual void on_release(std::uint64_t txn) noexcept = 0;

  /// Claim-table introspection (tests): no claims held at all / claims
  /// held by one transaction.
  [[nodiscard]] virtual bool empty() const noexcept = 0;
  [[nodiscard]] virtual std::size_t claims_of(std::uint64_t txn) const noexcept = 0;
};

/// The historical first-writer-wins policy: the later declaration loses
/// immediately, reads are never judged.  Must stay bit-identical in cost
/// to the pre-policy ConflictTable path (it charges nothing and decides
/// nothing new).
class FirstWriterWins final : public CcPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "fww"; }
  void on_begin(std::uint64_t /*txn*/) override {}
  [[nodiscard]] std::optional<CcRejection> on_declare(std::uint64_t txn, std::uint32_t record,
                                                      std::uint64_t offset,
                                                      std::uint64_t size) override;
  [[nodiscard]] std::uint64_t on_validate(const TxnContext& /*ctx*/) override { return 0; }
  void on_commit(const TxnContext& /*ctx*/) override {}
  void on_release(std::uint64_t txn) noexcept override { table_.release(txn); }
  [[nodiscard]] bool empty() const noexcept override { return table_.empty(); }
  [[nodiscard]] std::size_t claims_of(std::uint64_t txn) const noexcept override {
    return table_.claims_of(txn);
  }

 private:
  ConflictTable table_;
};

/// Timestamp-ordered wait-die over the begin order (smaller id = older).
/// An older requester hitting a younger holder "waits": it owes a bounded
/// slice of simulated time (the CcRejection's wait) and then retries —
/// the wait is modelled in virtual time, so a host thread never blocks on
/// a simulated holder, and the caller's retry loop is the requeue.  A younger requester hitting an older holder dies immediately
/// (AbortReason::kWounded).  Deadlock-free: waiting is ordered by age.
/// Deviation from the textbook: a restarted transaction gets a *younger*
/// timestamp (ids are assigned at begin), so starvation of a repeatedly
/// wounded transaction is bounded only by the workload's retry budget.
class WaitDie final : public CcPolicy {
 public:
  explicit WaitDie(sim::SimDuration wait) : wait_(wait) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "wait-die"; }
  void on_begin(std::uint64_t /*txn*/) override {}
  [[nodiscard]] std::optional<CcRejection> on_declare(std::uint64_t txn, std::uint32_t record,
                                                      std::uint64_t offset,
                                                      std::uint64_t size) override;
  [[nodiscard]] std::uint64_t on_validate(const TxnContext& /*ctx*/) override { return 0; }
  void on_commit(const TxnContext& /*ctx*/) override {}
  void on_release(std::uint64_t txn) noexcept override { table_.release(txn); }
  [[nodiscard]] bool empty() const noexcept override { return table_.empty(); }
  [[nodiscard]] std::size_t claims_of(std::uint64_t txn) const noexcept override {
    return table_.claims_of(txn);
  }

 private:
  ConflictTable table_;
  sim::SimDuration wait_;
};

/// OCC with backward validation.  Writes keep declare-time exclusion (the
/// mechanism above); reads are optimistic — Transaction::read_range only
/// records them — and commit validates the read set against every write
/// set committed since this transaction began.  History snapshots are
/// pruned to the oldest open transaction's begin point, so the memory held
/// is proportional to committed-write-set bytes within the concurrency
/// window, not the run length.  A commit with no other transaction open
/// records no snapshot at all, since nothing could validate against it,
/// and the begin snapshots keep their storage: a serial workload
/// allocates nothing here.
class ValidateAtCommit final : public CcPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "validate"; }
  void on_begin(std::uint64_t txn) override;
  [[nodiscard]] std::optional<CcRejection> on_declare(std::uint64_t txn, std::uint32_t record,
                                                      std::uint64_t offset,
                                                      std::uint64_t size) override;
  [[nodiscard]] std::uint64_t on_validate(const TxnContext& ctx) override;
  void on_commit(const TxnContext& ctx) override;
  void on_release(std::uint64_t txn) noexcept override;
  [[nodiscard]] bool empty() const noexcept override { return table_.empty(); }
  [[nodiscard]] std::size_t claims_of(std::uint64_t txn) const noexcept override {
    return table_.claims_of(txn);
  }

  /// Committed-write-set snapshots currently retained (tests: pruning).
  [[nodiscard]] std::size_t history_size() const noexcept;

 private:
  /// One committed transaction's write set, stamped with its position in
  /// commit order.  A validating transaction must check every entry whose
  /// seq is newer than its begin snapshot.
  struct CommittedWrites {
    std::uint64_t seq = 0;
    std::uint64_t txn = 0;
    std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>> write_set;
  };

  /// An open transaction and commit_seq_ at its begin.
  struct BeginSnapshot {
    std::uint64_t txn = 0;
    std::uint64_t seq = 0;
  };

  /// Drops `txn`'s begin snapshot, if it has one.
  void end_locked(std::uint64_t txn) noexcept PERSEAS_REQUIRES(mu_);
  void prune_locked() PERSEAS_REQUIRES(mu_);

  ConflictTable table_;
  /// Guards the OCC bookkeeping below (the claim table locks itself).
  /// Every caller already holds the Perseas orchestration lock, but the
  /// policy stays self-consistent standalone (property tests drive it
  /// directly).
  mutable sync::Mutex mu_;
  std::uint64_t commit_seq_ PERSEAS_GUARDED_BY(mu_) = 0;
  /// One per open transaction, unordered (erased at commit/release).
  std::vector<BeginSnapshot> begin_seq_ PERSEAS_GUARDED_BY(mu_);
  /// Commit-ordered snapshots, pruned below min(begin_seq_).
  std::vector<CommittedWrites> history_ PERSEAS_GUARDED_BY(mu_);
};

/// The policy `config` asks for (PerseasConfig::cc_policy / cc_wait).
[[nodiscard]] std::unique_ptr<CcPolicy> make_cc_policy(const PerseasConfig& config);

}  // namespace perseas::core

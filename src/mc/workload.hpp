// Deterministic transaction workloads for the crash-consistency model
// checker (perseas::mc).
//
// A workload is pure data — a list of transactions, each a list of declared
// write ranges — so the checker can replay exactly the same execution for
// every (failure point, hit, failure kind) combination it explores.  The
// bytes written into each range are a pure function of (transaction index,
// op index, byte position), shared by the engine executor and the reference
// model: the checker can therefore predict the exact recovered image
// without ever trusting the engine under test.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perseas::mc {

/// One declared write: set_range(offset, size) followed by a deterministic
/// fill of those bytes.
struct McOp {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

/// One transaction: its ops in execution order (ranges may overlap, which
/// exercises write-set coalescing and newest-first rollback).
struct McTxn {
  std::vector<McOp> ops;
};

/// A fully materialized workload.
struct McWorkloadSpec {
  std::string name;
  std::uint64_t db_size = 0;
  std::vector<McTxn> txns;
  /// Run the interleaved schedule: transaction pairs (2k, 2k+1) are open
  /// concurrently on two engine slots, with commits in index order, so
  /// the reference images states[t] keep their serial meaning.  Requires
  /// an engine with max_open_txns() >= 2 and parity-disjoint write sets
  /// (guaranteed by the "interleaved" generator).
  bool interleaved = false;
};

/// The deterministic content written for op `op_index` of txn `txn_index`:
/// dst[i] = f(txn, op, i).  Distinct per transaction, so the checker can
/// tell states[t] and states[t+1] apart byte-wise.
void fill_op(std::span<std::byte> dst, std::uint64_t txn_index, std::uint64_t op_index);

/// Builds a workload.  `kind` is one of:
///   "debit-credit"  TPC-B-shaped: branch/teller/account rows, a history
///                   cursor and an append-only history tail (overlapping
///                   hot rows across transactions).
///   "synthetic"     seeded random ranges, including overlaps within one
///                   transaction.
///   "interleaved"   like synthetic, but even-indexed transactions draw
///                   from the lower half of the database and odd-indexed
///                   from the upper half; sets `interleaved` so the
///                   checker keeps each pair open concurrently on two
///                   engine slots.
///   "scripted"      parsed from `script`: one transaction per line, ops as
///                   whitespace-separated "offset:size" tokens, '#' starts
///                   a comment.
/// Throws std::invalid_argument for unknown kinds, malformed scripts, or a
/// db_size too small for the requested shape.
[[nodiscard]] McWorkloadSpec make_workload(const std::string& kind, std::uint64_t txns,
                                           std::uint64_t db_size, std::uint64_t seed,
                                           const std::string& script = {});

/// The workload kinds make_workload accepts.
[[nodiscard]] std::vector<std::string> known_workloads();

}  // namespace perseas::mc

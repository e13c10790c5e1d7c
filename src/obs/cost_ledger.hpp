// obs::CostLedger — per-transaction cost attribution with a conservation
// law.
//
// The paper's whole argument is a cost model: every simulated microsecond
// of commit latency is charged somewhere by the netram layer.  The ledger
// makes that attribution explicit: every charged nanosecond and every SCI
// byte lands under a (txn, phase, layer, channel) key, and because the
// ledger observes sim::SimClock::advance() itself (not the individual
// charge sites), the conservation check
//
//     sum over keys of ns  ==  clock.now() - installation time
//
// holds EXACTLY, by construction — there is no way for a new charge site
// to escape the books.  Charges that arrive outside any scope are booked
// under the root key {txn=0, phase="unattributed", layer="sim",
// channel="-"}; a growing unattributed row is the signal that a code path
// needs a ScopedCost.
//
// Attribution is scoped RAII-style: the engines open a ScopedCost around
// each phase (core/perseas.cpp brackets begin, set_range, local-undo,
// remote-undo, validate, flag-set, propagate, flag-clear, commit, abort,
// recovery; the WAL engines their own lifecycle), and every charge the
// netram layer makes while the scope is live is booked to it.  The same
// scope is the phase's timer (ScopedCost::elapsed) and, when a
// TraceRecorder is attached, its trace span, so every phase has one
// instrumentation site.  Bytes are attributed explicitly by the cluster's
// charged ops via add_bytes().
//
// Like all of perseas::obs, the ledger charges no simulated time and no
// simulated traffic of its own; with no ledger installed the clock hook
// is a null-pointer check and runs are bit-for-bit cost-identical.
//
// Threading: the scope stack is the live ScopedCost guards themselves.  A
// scope opened with a ledger links itself into its thread's chain (a
// thread_local pointer to the innermost scope, each scope pointing at its
// parent) and unlinks as it closes, so a charge books to the innermost
// scope the *charging* thread has open on this ledger — on a worker
// behind a sim::ThreadClock and on a plain std::thread alike.
//
// A charge takes no lock and hashes no string, and it allocates only when
// its thread's rows outgrow their storage, which doubles.  Each charging
// thread books into its own shard of rows (sync::ThreadShards, the same
// per-thread shards the counters and the blackbox use): a thread finds it
// through a one-entry thread_local cache keyed by the ledger's serial
// number, and only a cache miss takes a mutex.  The scope remembers its row at its first charge, so
// every later charge in it is one add.  The first finds the row through
// the shard's flat index on the txn id, then among that transaction's few
// rows by the names' addresses.  Rows keep the scope's names after it
// closes: phase, layer and channel must be string literals.
//
// Reads (entries, totals, by_phase, to_json) merge the shards, summing
// equal keys, so every key is one row.  They must run
// after the charging threads have joined (or on the only charging
// thread); every caller reads a finished run.  The conservation law
// survives threads because the clock's total is itself the sum of every
// thread's charges (see sim::ThreadClock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_shards.hpp"
#include "obs/json.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

/// One attribution scope / ledger row key.  txn 0 means "not
/// transaction-scoped" (recovery, setup, background traffic).  The names
/// are views of string literals, so a key copies no characters.
struct CostKey {
  std::uint64_t txn = 0;
  std::string_view phase = "unattributed";
  std::string_view layer = "sim";
  std::string_view channel = "-";

  [[nodiscard]] bool operator==(const CostKey&) const noexcept = default;
};

/// One ledger row: the accumulated simulated time and SCI bytes of a key.
struct CostEntry {
  CostKey key;
  sim::SimDuration ns = 0;
  std::uint64_t bytes = 0;
};

class CostLedger final : public sim::SimClock::ChargeObserver {
 public:
  CostLedger();
  ~CostLedger() override;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// sim::SimClock::ChargeObserver: books `d` under the calling thread's
  /// innermost scope on this ledger (the root row when it has none).
  void on_advance(sim::SimDuration d) noexcept override;

  /// Books `n` SCI bytes the same way (called by the cluster's charged
  /// data movers; control RPCs move no payload bytes).
  void add_bytes(std::uint64_t n) noexcept;

  /// Rows in first-charge order, one per key: each thread's rows in the
  /// order it first charged them, threads in the order they first charged
  /// this ledger.  Like every read below, call it only once the threads
  /// that charged have joined.
  [[nodiscard]] std::vector<CostEntry> entries() const;

  /// Conservation left-hand side: total nanoseconds across every row.
  /// Equals the clock delta since installation, exactly.
  [[nodiscard]] sim::SimDuration total_ns() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;

  /// Aggregated ns per phase, first-charge order — the fig6-style
  /// breakdown (local undo / remote undo / flags / propagation / ...).
  [[nodiscard]] std::vector<std::pair<std::string_view, sim::SimDuration>> by_phase() const;

  /// The "ledger" section of the perseas-bench/1 document: row list plus
  /// the by-phase aggregation and conservation totals.
  [[nodiscard]] Json to_json() const;

 private:
  /// One thread's rows; defined in cost_ledger.cpp.
  struct Shard;

  /// The row a charge from the calling thread books to: that of the
  /// thread's innermost scope on this ledger, else the root row.  Created
  /// on first charge.
  [[nodiscard]] CostEntry& current_row();
  /// Every shard's rows, equal keys summed (see entries()).
  [[nodiscard]] std::vector<CostEntry> merged() const;

  /// One per charging thread, in the order threads first charged.  Its
  /// serial() is the key of each scope's cached row.
  sync::ThreadShards<Shard> shards_;
};

class TraceRecorder;

/// Where cost scopes report: the ledger their charges book into, the trace
/// their spans land in (either may be null), and the clock that times them
/// (never null).  netram::Cluster owns the one instance of a simulation
/// (Cluster::set_ledger / Cluster::set_trace fill it in) and hands it to
/// every scope as Cluster::sinks().
struct CostSinks {
  CostLedger* ledger = nullptr;
  TraceRecorder* trace = nullptr;
  std::uint32_t track = 0;  ///< the trace track spans land on
  const sim::SimClock* clock = nullptr;
};

/// RAII cost scope: the one instrumentation site of a protocol phase.
/// It reads the clock once as it opens, and elapsed() is the phase's
/// simulated duration so far on the calling thread's timeline.  While it
/// lives, every charge the calling thread makes books into the ledger
/// under (txn, phase, layer, channel); when it closes, it records one
/// complete trace span (name = phase, category = layer, lane =
/// sim::current_worker_id(), arg txn) from its opening to its closing
/// simulated instant.  Spans need no ledger, and with neither sink
/// attached a scope is one clock read and two null checks, so call sites
/// need no branching.  Ledger rows keep views of `phase`, `layer` and
/// `channel` after the scope closes: pass string literals, never a
/// temporary std::string.
class ScopedCost {
 public:
  ScopedCost(const CostSinks& sinks, std::uint64_t txn, std::string_view phase,
             std::string_view layer, std::string_view channel) noexcept
      : sinks_(sinks), key_{txn, phase, layer, channel}, start_(sinks.clock->now()) {
    if (sinks_.ledger != nullptr) {
      parent_ = innermost_;
      innermost_ = this;
    }
  }
  ~ScopedCost() {
    if (sinks_.trace != nullptr) record_span();
    if (sinks_.ledger != nullptr) innermost_ = parent_;
  }

  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

  /// Simulated time since the scope opened.
  [[nodiscard]] sim::SimDuration elapsed() const noexcept { return sinks_.clock->now() - start_; }

 private:
  friend class CostLedger;

  void record_span() const noexcept;

  CostSinks sinks_;
  CostKey key_;
  sim::SimTime start_;
  /// The enclosing scope on this thread that has a ledger (null at the
  /// bottom of the chain); meaningful only while sinks_.ledger != nullptr.
  const ScopedCost* parent_ = nullptr;
  /// The ledger row this scope books to, set at its first charge; valid
  /// while row_ledger_ is the serial of sinks_.ledger's shards.
  mutable CostEntry* row_ = nullptr;
  mutable std::uint64_t row_ledger_ = 0;

  /// The calling thread's innermost scope that has a ledger.
  static thread_local const ScopedCost* innermost_;
};

inline thread_local const ScopedCost* ScopedCost::innermost_ = nullptr;

}  // namespace perseas::obs

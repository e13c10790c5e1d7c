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
// Attribution is scoped RAII-style: the engines push a ScopedCost around
// each phase (core/perseas.cpp brackets begin, set_range, local-undo,
// remote-undo, validate, flag-set, propagate, flag-clear, commit, abort,
// recovery; the WAL engines their own lifecycle), and every charge the
// netram layer makes while the scope is live is booked to it.  The same
// scope is the phase's trace span when a TraceRecorder is attached, so
// every phase has one instrumentation site.  Bytes are attributed
// explicitly by the cluster's charged ops via add_bytes().
//
// Like all of perseas::obs, the ledger charges no simulated time and no
// simulated traffic of its own; with no ledger installed the clock hook
// is a null-pointer check and runs are bit-for-bit cost-identical.
//
// Threading: the ledger is one shared instance behind one mutex, but the
// scope *stacks* are per worker (keyed by sim::current_worker_id(), 0 for
// the main thread), so a charge made on worker 3 is booked to the scope
// worker 3 pushed — not to whatever scope another thread happens to have
// open.  The conservation law survives threads because the clock's total
// is itself the sum of every thread's charges (see sim::ThreadClock).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "obs/json.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

/// One attribution scope / ledger row key.  txn 0 means "not
/// transaction-scoped" (recovery, setup, background traffic).
struct CostKey {
  std::uint64_t txn = 0;
  std::string phase = "unattributed";
  std::string layer = "sim";
  std::string channel = "-";

  [[nodiscard]] bool operator==(const CostKey& o) const noexcept {
    return txn == o.txn && phase == o.phase && layer == o.layer && channel == o.channel;
  }
};

/// One ledger row: the accumulated simulated time and SCI bytes of a key.
struct CostEntry {
  CostKey key;
  sim::SimDuration ns = 0;
  std::uint64_t bytes = 0;
};

class CostLedger final : public sim::SimClock::ChargeObserver {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// sim::SimClock::ChargeObserver: books `d` under the calling thread's
  /// current scope.
  void on_advance(sim::SimDuration d) noexcept override;

  /// sim::SimClock::ChargeObserver: the clock was reset to t=0 — the
  /// accumulated rows refer to a dead epoch, so drop them (scopes held by
  /// live ScopedCost guards survive; their charges book into the new
  /// epoch).  Keeps the conservation law exact across a reset instead of
  /// silently off by the pre-reset total.
  void on_reset() noexcept override;

  /// Books `n` SCI bytes under the current scope (called by the cluster's
  /// charged data movers; control RPCs move no payload bytes).
  void add_bytes(std::uint64_t n) noexcept;

  /// Scope stack of the calling thread's worker (prefer the ScopedCost
  /// RAII wrapper).  Push and pop must happen on the same thread.
  void push_scope(CostKey key);
  void pop_scope() noexcept;

  /// Rows in first-charge order.
  [[nodiscard]] std::vector<CostEntry> entries() const;

  /// Conservation left-hand side: total nanoseconds across every row.
  /// Equals the clock delta since installation, exactly.
  [[nodiscard]] sim::SimDuration total_ns() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;

  /// Aggregated ns per phase, first-charge order — the fig6-style
  /// breakdown (local undo / remote undo / flags / propagation / ...).
  [[nodiscard]] std::vector<std::pair<std::string, sim::SimDuration>> by_phase() const;

  /// The "ledger" section of the perseas-bench/1 document: row list plus
  /// the by-phase aggregation and conservation totals.
  [[nodiscard]] Json to_json() const;

  void clear() noexcept;

 private:
  /// One worker's attribution state: its scope stack plus a cache of the
  /// row its last charge landed in (consecutive charges usually hit one
  /// key, and with threads the cache must be per worker or threads would
  /// evict each other's hit every charge).
  struct ScopeStack {
    std::vector<CostKey> scopes;
    std::size_t last_hit = 0;
  };

  /// The row of the calling worker's current scope (created on first
  /// charge).  Its row scan is the hot loop of every threaded run with a
  /// ledger attached (it runs under mu_, so it serializes the workers), and
  /// its throughput depends on where the loop falls relative to 64-byte
  /// boundaries: left to the linker, unrelated code-size changes moved it
  /// and swung multi-threaded host throughput by 20-30%.  The pinned
  /// alignment keeps host-time measurements comparable across changes.
  [[gnu::aligned(64)]] [[nodiscard]] CostEntry& entry_for_top() PERSEAS_REQUIRES(mu_);

  mutable sync::Mutex mu_;
  std::vector<CostEntry> entries_ PERSEAS_GUARDED_BY(mu_);
  /// Per-worker scope stacks, keyed by sim::current_worker_id() (0 = main
  /// thread / any thread without a sim::ThreadClock).
  std::unordered_map<std::uint32_t, ScopeStack> stacks_ PERSEAS_GUARDED_BY(mu_);
};

class TraceRecorder;

/// Where cost scopes report: the ledger their charges book into, the trace
/// their spans land in (either may be null), and the clock spans are
/// stamped with.  netram::Cluster owns the one instance of a simulation
/// (Cluster::set_ledger / Cluster::set_trace fill it in) and hands it to
/// every scope as Cluster::sinks().
struct CostSinks {
  CostLedger* ledger = nullptr;
  TraceRecorder* trace = nullptr;
  std::uint32_t track = 0;  ///< the trace track spans land on
  const sim::SimClock* clock = nullptr;
};

/// RAII cost scope: the one instrumentation site of a protocol phase.
/// While it lives, every charge on the calling worker books into the
/// ledger under (txn, phase, layer, channel); when it closes, it records
/// one complete trace span (name = phase, category = layer, lane =
/// sim::current_worker_id(), arg txn) from its opening to its closing
/// simulated instant.  Spans need no ledger, and with neither sink
/// attached construction and destruction are two null checks that read no
/// clock, so call sites need no branching.  The scope keeps views of
/// `phase` and `layer` until it closes, so what they view must outlive it:
/// pass string literals, never a temporary std::string.
class ScopedCost {
 public:
  ScopedCost(const CostSinks& sinks, std::uint64_t txn, std::string_view phase,
             std::string_view layer, std::string_view channel)
      : ledger_(sinks.ledger), recorder_(sinks.trace) {
    if (ledger_ != nullptr) {
      ledger_->push_scope(
          CostKey{txn, std::string(phase), std::string(layer), std::string(channel)});
    }
    if (recorder_ != nullptr) open_span(sinks, txn, phase, layer);
  }
  ~ScopedCost() {
    if (recorder_ != nullptr) close_span();
    if (ledger_ != nullptr) ledger_->pop_scope();
  }

  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

 private:
  void open_span(const CostSinks& sinks, std::uint64_t txn, std::string_view phase,
                 std::string_view layer) noexcept;
  void close_span() noexcept;

  CostLedger* ledger_;
  TraceRecorder* recorder_;
  // The open span; meaningful only while recorder_ != nullptr.
  const sim::SimClock* clock_ = nullptr;
  std::uint32_t track_ = 0;
  std::uint64_t txn_ = 0;
  std::string_view phase_;
  std::string_view layer_;
  sim::SimTime start_ = 0;
};

}  // namespace perseas::obs

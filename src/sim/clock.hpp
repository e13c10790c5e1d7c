// The global simulated clock shared by every component of one simulation.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "sim/sim_time.hpp"

namespace perseas::sim {

class ThreadClock;

/// Monotonic simulated clock.
///
/// One SimClock is owned by a Cluster and shared (by reference) with every
/// node, NIC, disk, and library instance in that simulation.  Components
/// call advance() with the modelled cost of each operation; measurement code
/// samples now() around a region of interest.
///
/// Threading.  By default the clock is a plain accumulator driven from one
/// thread.  A worker thread that registers a ThreadClock gets a *per-thread
/// virtual timeline*: its advances accumulate in the thread's own front and
/// fold into the shared clock only at sync points (ThreadClock::merge —
/// commit, conflict, recovery, thread exit).  The shared value is therefore
/// the TOTAL simulated work of the whole simulation (the conservation
/// quantity `sum(obs::CostLedger) == clock delta` keeps holding exactly),
/// while each thread's now() view advances only with its own charges —
/// threads overlap in virtual time the way real CPUs overlap in wall time.
/// With no ThreadClock registered the behavior (and every simulated number)
/// is bit-identical to the pre-threading clock.
class SimClock {
 public:
  /// Sees every advance() as it happens.  The hook exists so a cost
  /// accountant (obs::CostLedger) can attribute each charged nanosecond
  /// to whatever scope is current at charge time — making the ledger's
  /// conservation law `sum(ledger) == clock delta` true by construction
  /// rather than by auditing every charge site.  The observer must not
  /// call back into the clock.  With worker threads registered the
  /// callback runs on the charging thread; implementations must be
  /// thread-safe (obs::CostLedger books each thread's charges into that
  /// thread's own shard, with no lock, and merges the shards when read
  /// after the charging threads have joined).
  class ChargeObserver {
   public:
    virtual ~ChargeObserver() = default;
    virtual void on_advance(SimDuration d) noexcept = 0;
  };

  SimClock() = default;

  /// Current simulated time.  From a thread with a registered ThreadClock
  /// this is the thread's own virtual timeline (merged base + its pending
  /// local charges); from any other thread it is the shared total.
  [[nodiscard]] SimTime now() const noexcept;

  /// Moves time forward by `d` (d >= 0).  From a thread with a registered
  /// ThreadClock the charge lands in the thread's local front (folded in
  /// at the next merge); the charge observer sees it immediately either
  /// way, so no charged nanosecond ever escapes the ledger.
  void advance(SimDuration d) noexcept;

  /// Deliberate waiting (conflict backoff, wait-die's timestamp wait): the
  /// caller's timeline moves forward by `d` without modelling any work.
  /// Pure sugar over advance(), so the ledger's conservation law and the
  /// per-thread fronts treat waiting exactly like any other charge — the
  /// name exists so wait sites read as waits, not as mis-attributed work.
  void wait(SimDuration d) noexcept { advance(d); }

  /// Installs (or with nullptr removes) the charge observer; not owned.
  /// Must not race with advances: install before worker threads register.
  void set_observer(ChargeObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] ChargeObserver* observer() const noexcept { return observer_; }

  /// Number of advance() calls so far; useful for asserting that an
  /// operation touched the modelled hardware an expected number of times.
  /// Like now(), counts a registered thread's pending calls only after its
  /// merge.
  [[nodiscard]] std::uint64_t advance_count() const noexcept {
    return advance_count_.load(std::memory_order_relaxed);
  }

  /// Number of ThreadClock fronts currently registered on this clock.
  [[nodiscard]] std::uint32_t thread_fronts() const noexcept {
    return fronts_.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadClock;

  /// Read by every advance(); kept off the line the merges write.
  ChargeObserver* observer_ = nullptr;
  /// The shared (merged) timeline and charge count.  Relaxed atomics: the
  /// values are pure accumulators — merge order never changes the total,
  /// which is what keeps the threaded cost model deterministic.
  alignas(64) std::atomic<SimTime> now_{0};
  std::atomic<std::uint64_t> advance_count_{0};
  std::atomic<std::uint32_t> fronts_{0};
};

/// Per-thread virtual-time front over a shared SimClock (RAII).
///
/// A worker thread constructs one ThreadClock for the duration of its run;
/// while it lives, every SimClock::advance() made *from that thread*
/// accumulates in the front instead of the shared clock, and now() answers
/// with the thread's own timeline.  merge() is the sync point: the pending
/// local time folds into the shared clock (a single atomic add, so the
/// shared value stays the exact total of all charges) and the thread's
/// base joins the merged timeline — a Lamport-style join that keeps every
/// thread's now() monotonic.  The harness merges after each commit,
/// conflict loss, and recovery; destruction merges whatever is left.
///
/// local_time() is the thread's own accumulated simulated work — the
/// quantity per-thread latency and the threaded makespan
/// (max over workers) are computed from.
///
/// One ThreadClock per thread at a time (asserted); the main thread needs
/// none and keeps the classic single-threaded behavior bit-identical.
class ThreadClock {
 public:
  /// Registers this thread's front on `clock`.  `worker` is a small
  /// harness-assigned id (1-based; 0 means "no front"), the lane of the
  /// thread's trace spans.
  explicit ThreadClock(SimClock& clock, std::uint32_t worker = 1) noexcept
      : clock_(&clock), worker_(worker), base_(clock.now_.load(std::memory_order_relaxed)) {
    assert(current_ == nullptr && "one ThreadClock per thread");
    clock_->fronts_.fetch_add(1, std::memory_order_relaxed);
    current_ = this;
  }

  ~ThreadClock() {
    merge();
    current_ = nullptr;
    clock_->fronts_.fetch_sub(1, std::memory_order_relaxed);
  }

  ThreadClock(const ThreadClock&) = delete;
  ThreadClock& operator=(const ThreadClock&) = delete;

  /// The calling thread's front, or nullptr (main thread / no front).
  [[nodiscard]] static ThreadClock* current() noexcept { return current_; }

  /// This thread's virtual now: merged base plus pending local charges.
  [[nodiscard]] SimTime now() const noexcept { return base_ + pending_; }

  /// Total simulated time this thread has charged since registration
  /// (across merges; the per-thread busy time).
  [[nodiscard]] SimDuration local_time() const noexcept { return total_; }

  [[nodiscard]] std::uint32_t worker() const noexcept { return worker_; }

  /// Charged wait on this thread's front: the thread's own timeline (and,
  /// at the next merge, the shared total) moves forward by `d` while the
  /// thread does no modelled work.  Retry loops back off with this instead
  /// of spinning at the same simulated instant — under wait-die, an
  /// immediate retry would re-collide with the very claim it just lost to.
  /// Must be called from the owning thread (like every charge).
  void wait(SimDuration d) noexcept { clock_->wait(d); }

  /// Sync point: folds the pending local time into the shared clock and
  /// joins this thread's base to the merged timeline.  Cheap when nothing
  /// is pending.
  void merge() noexcept {
    if (pending_ == 0 && pending_count_ == 0) return;
    const SimTime prior = clock_->now_.fetch_add(pending_, std::memory_order_relaxed);
    clock_->advance_count_.fetch_add(pending_count_, std::memory_order_relaxed);
    base_ = prior + pending_;
    pending_ = 0;
    pending_count_ = 0;
  }

 private:
  friend class SimClock;

  void charge(SimDuration d) noexcept {
    pending_ += d;
    total_ += d;
    ++pending_count_;
  }

  SimClock* clock_;
  std::uint32_t worker_;
  SimTime base_;                      ///< shared time joined at the last merge
  SimDuration pending_ = 0;           ///< charges not yet folded into the clock
  SimDuration total_ = 0;             ///< all charges since registration
  std::uint64_t pending_count_ = 0;
  static thread_local ThreadClock* current_;
};

inline thread_local ThreadClock* ThreadClock::current_ = nullptr;

/// The calling thread's harness worker id (0 on the main thread / any
/// thread without a ThreadClock).  Trace spans use it as their lane, so
/// lanes are named by worker rather than by OS thread id.
[[nodiscard]] inline std::uint32_t current_worker_id() noexcept {
  const ThreadClock* front = ThreadClock::current();
  return front != nullptr ? front->worker() : 0;
}

inline SimTime SimClock::now() const noexcept {
  if (const ThreadClock* front = ThreadClock::current();
      front != nullptr && front->clock_ == this) {
    return front->now();
  }
  return now_.load(std::memory_order_relaxed);
}

inline void SimClock::advance(SimDuration d) noexcept {
  assert(d >= 0);
  if (ThreadClock* front = ThreadClock::current(); front != nullptr && front->clock_ == this) {
    front->charge(d);
  } else {
    now_.fetch_add(d, std::memory_order_relaxed);
    advance_count_.fetch_add(1, std::memory_order_relaxed);
  }
  if (observer_ != nullptr) observer_->on_advance(d);
}

/// Measures the simulated duration of a scoped region.
///
///   StopWatch sw(clock);
///   ... operations ...
///   SimDuration cost = sw.elapsed();
///
/// On a thread with a registered ThreadClock the watch reads the thread's
/// own timeline, so it measures exactly the thread's own charges.
class StopWatch {
 public:
  explicit StopWatch(const SimClock& clock) noexcept : clock_(&clock), start_(clock.now()) {}

  [[nodiscard]] SimDuration elapsed() const noexcept { return clock_->now() - start_; }

 private:
  const SimClock* clock_;
  SimTime start_;
};

}  // namespace perseas::sim

// Failure model: power supplies, crash kinds, and scriptable failure points.
//
// The paper's reliability argument (section 1) distinguishes
//   (a) power outages    — survived because mirrors sit on different supplies,
//   (b) hardware errors  — independent across machines,
//   (c) software errors  — independent across machines,
//   (d) correlated hangs — stall service but lose no data.
// This module lets tests and benches script exactly those events at named
// points inside library operations, so the recovery protocol can be
// exercised at every intermediate state of a commit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_points.hpp"
#include "core/sync.hpp"
#include "core/thread_shards.hpp"

namespace perseas::sim {

/// Why a node went down.
enum class FailureKind : std::uint8_t {
  kPowerOutage,    // loses DRAM contents
  kHardwareFault,  // loses DRAM contents
  kSoftwareCrash,  // loses the process; DRAM exported to others survives only
                   // on *other* machines (no Rio in the baseline OS)
  kHang,           // temporary; loses nothing
};

[[nodiscard]] std::string_view to_string(FailureKind kind) noexcept;

/// Thrown when a simulated node crashes underneath an executing operation.
/// Library code lets this propagate to the caller, exactly like a process
/// losing its machine: the next step is recovery, not error handling.
class NodeCrashed : public std::runtime_error {
 public:
  NodeCrashed(std::uint32_t node_id, FailureKind kind, std::string point);

  [[nodiscard]] std::uint32_t node_id() const noexcept { return node_id_; }
  [[nodiscard]] FailureKind kind() const noexcept { return kind_; }
  /// The failure point at which the crash was injected ("" if scheduled).
  [[nodiscard]] const std::string& point() const noexcept { return point_; }

 private:
  std::uint32_t node_id_;
  FailureKind kind_;
  std::string point_;
};

/// A power supply (wall socket or UPS).  Nodes reference a supply by index;
/// failing a supply crashes every attached node at once, which is how tests
/// demonstrate that mirrors on *different* supplies survive while mirrors
/// sharing one do not.
struct PowerSupply {
  std::string name;
  bool failed = false;
};

/// Scriptable failure points.
///
/// Library code calls notify(points::kAfterFlagSet) at each interesting
/// step (the full set lives in core/failure_points.hpp); a test arms an
/// action at that point with an optional countdown ("crash on the 3rd
/// commit").  Actions typically crash a node and therefore throw
/// NodeCrashed through the library operation.  Points are
/// core::points::PointId, so an unregistered name does not compile.
///
/// Thread-safe, and lock-free while nothing is armed: each notifying
/// thread counts its hits in its own shard (sync::ThreadShards), and
/// hits()/snapshot() sum the shards.  Only while an action is armed does
/// notify() take mu_, so the countdown is judged against the point's
/// total.  Armed actions run *outside* the lock (they may crash nodes,
/// throw, or re-enter arm()/notify()).
class FailureInjector {
 public:
  using PointId = core::points::PointId;
  using Action = std::function<void()>;
  /// Hits per point, indexed by PointId::index().
  using HitCounts = std::array<std::uint64_t, core::points::kFailurePointCount>;

  /// Sees every notify() with the point and the notifying thread's new hit
  /// count on it (the point's total when one thread drives the injector),
  /// *before* any armed action fires (so a crash action still leaves the firing on
  /// record).  The cluster wires its flight recorder here, which is how
  /// every engine's injector firings — rvm, vista, netram, perseas — land
  /// in the blackbox with zero per-engine instrumentation.  Must not call
  /// back into arm()/notify().
  using Observer = std::function<void(PointId point, std::uint64_t hits)>;

  /// `observer` is fixed for the injector's life (empty = none).
  explicit FailureInjector(Observer observer = {}) : observer_(std::move(observer)) {}

  /// Arms `action` to run when `point` has been hit `after_hits` more times
  /// (0 = next hit).  Multiple arms on one point all fire.
  void arm(PointId point, std::uint64_t after_hits, Action action);

  /// Convenience: arms on the next hit.
  void arm(PointId point, Action action) { arm(point, 0, std::move(action)); }

  /// Disarms everything.  Hit counts are deliberately kept: coverage
  /// assertions (hits() / snapshot()) keep working after a scenario
  /// disarms its pending actions.  Use reset() for a pristine injector.
  void clear() noexcept {
    sync::LockGuard lock(mu_);
    armed_.clear();
    armed_size_.store(0, std::memory_order_release);
  }

  /// Disarms everything *and* forgets all hit counts, as if freshly
  /// constructed.  Scenarios that reuse one injector across independent
  /// runs must call this, or arm(point, after_hits, ...) countdowns will
  /// be offset by the previous run's hits.  Call it while no other thread
  /// notifies.
  void reset() noexcept;

  /// Called by instrumented library code.  Runs (and removes) every armed
  /// action whose countdown expires at this hit.  Cheap when nothing is
  /// armed.
  void notify(PointId point);

  /// Total hits observed for `point`, over every thread (for tests
  /// asserting coverage).
  [[nodiscard]] std::uint64_t hits(PointId point) const noexcept;

  /// Every point's hit count.  Model checkers diff two snapshots to get
  /// the exact set of stores executed by one window of work (a
  /// transaction, a recovery pass) without hard-coded point lists.
  [[nodiscard]] HitCounts snapshot() const noexcept;

  /// Number of actions still armed (fired actions remove themselves); lets
  /// explorers detect an armed crash whose point was never reached.
  [[nodiscard]] std::size_t armed_count() const noexcept {
    sync::LockGuard lock(mu_);
    return armed_.size();
  }

 private:
  struct Armed {
    PointId point;
    std::uint64_t fire_at_hit;  // absolute hit index at which to fire
    Action action;
  };

  /// One thread's hits per point.  Written only by its thread; atomics so
  /// that hits() and a countdown may read them while it runs.
  using ShardCounts = std::array<std::atomic<std::uint64_t>, core::points::kFailurePointCount>;

  const Observer observer_;
  mutable sync::ThreadShards<ShardCounts> counts_;
  /// armed_.size(), readable without mu_: notify() takes mu_ only when it
  /// is non-zero.
  std::atomic<std::size_t> armed_size_{0};
  mutable sync::Mutex mu_;
  std::vector<Armed> armed_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::sim

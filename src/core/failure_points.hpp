// The central failure-point registry: every crash point any engine ever
// notifies, in one constexpr table.  A point's row is its identity: a
// PointId is an index into kFailurePoints, and sim::FailureInjector, the
// flight recorder and perseas::mc all key on it.
//
// The table is kept honest from three directions:
//   * compile time: PointId converts from a name only in a constant
//     expression (consteval), so notify()/arm() of an unregistered literal
//     does not compile, as a typo'd EventKind does not;
//     PointId::find() is the one run-time lookup, for names read from
//     input (perseas-mc --point);
//   * lint: tools/perseas-lint.py rule A checks every dotted point
//     literal in src/ against this table AND against the table in
//     docs/ANALYSIS.md §6, in both directions;
//   * coverage: tools/check-mc-report.py --registry enforces, over the
//     union of an engine's sweep reports, that every row marked
//     mc-reachable fired and that no row marked otherwise did.
//
// Columns: `engine` is the namespace that owns the point (first dotted
// component), `phase` the protocol step (second component), `order` the
// point's position in the engine's protocol (see below), and `mc`
// whether the point is fired by the perseas-mc sweeps CI runs for the
// engine (PERSEAS: the nested debit-credit sweep and the interleaved
// sweep; every other engine: its nested synthetic sweep).  Rows with
// mc=false document why in a trailing comment — they need substrate or
// behaviour those sweeps don't produce (extra mirrors, aborts, a
// non-default policy) and are exercised by targeted tier-1 tests instead.
//
// `order` is the write-ahead ordering contract made machine-checkable:
// within one engine, a smaller order means "must have happened first".
// The numbers are unique per engine and spaced by 10 so a new point can
// land between two existing ones without renumbering.  The contract is
// *intraprocedural*: tools/perseas-verify.py (check V1) requires the
// points a single function notifies directly to fire in non-decreasing
// order on every path through that function — which is exactly the
// paper's protocol order for set_range/commit/recover, while still
// permitting helpers like rvm's maybe_truncate() to be called from both
// the commit and recover paths.  docs/ANALYSIS.md §8 defines the check.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/protocol_points.hpp"

namespace perseas::core::points {

// --- non-core engines' points (aliased by their .cpp files) --------------

inline constexpr const char* kSciWritevBeforeBurst = "netram.sci_writev.before_burst";

inline constexpr const char* kRvmAfterUndo = "rvm.set_range.after_undo";
inline constexpr const char* kRvmAfterBuffer = "rvm.commit.after_buffer";
inline constexpr const char* kRvmCommitDone = "rvm.commit.done";
inline constexpr const char* kRvmForceAfterBody = "rvm.force.after_body";
inline constexpr const char* kRvmForceAfterMark = "rvm.force.after_mark";
inline constexpr const char* kRvmTruncateAfterPages = "rvm.truncate.after_pages";
inline constexpr const char* kRvmTruncateDone = "rvm.truncate.done";
inline constexpr const char* kRvmRecoverAfterImage = "rvm.recover.after_image";
inline constexpr const char* kRvmRecoverAfterReplay = "rvm.recover.after_replay";
inline constexpr const char* kRvmRecoverDone = "rvm.recover.done";

inline constexpr const char* kVistaAfterEntry = "vista.set_range.after_entry";
inline constexpr const char* kVistaAfterHeader = "vista.set_range.after_header";
inline constexpr const char* kVistaCommitDone = "vista.commit.done";
inline constexpr const char* kVistaRecoverAfterScan = "vista.recover.after_scan";
inline constexpr const char* kVistaRecoverAfterApply = "vista.recover.after_apply";
inline constexpr const char* kVistaRecoverDone = "vista.recover.done";

// --- the registry --------------------------------------------------------

struct FailurePoint {
  const char* name;
  const char* engine;  ///< owning namespace: perseas | netram | rvm | vista
  const char* phase;   ///< protocol step (second dotted component)
  int order;           ///< per-engine protocol position (unique, ascending)
  bool mc;             ///< fired by the engine's CI perseas-mc sweeps
};

inline constexpr FailurePoint kFailurePoints[] = {
    // PERSEAS protocol (three-copy commit; core/perseas.cpp + components).
    {kAfterLocalUndo, "perseas", "set_range", 10, true},
    {kValidateFail, "perseas", "commit", 12, false},  // needs cc_policy=validate + a read-write race
    {kAfterValidate, "perseas", "commit", 13, true},
    {kUndoAfterGrowth, "perseas", "undo", 15, true},
    {kAfterRemoteUndo, "perseas", "set_range", 20, true},
    {kAfterFlagSet, "perseas", "commit", 30, true},
    {kAfterRangeCopy, "perseas", "commit", 40, true},
    {kBeforeFlagClear, "perseas", "commit", 50, true},
    {kAfterFlagClear, "perseas", "commit", 60, true},
    {kCommitDone, "perseas", "commit", 70, true},
    {kAbortDone, "perseas", "abort", 75, false},  // debit-credit never aborts
    {kRecoverAfterMeta, "perseas", "recover", 100, true},
    {kRecoverConnected, "perseas", "recover", 110, true},
    {kRecoverAfterUndoScan, "perseas", "recover", 120, true},
    {kRecoverAfterRollback, "perseas", "recover", 130, true},
    {kRecoverAfterFlagClear, "perseas", "recover", 140, true},
    {kRecoverAfterPull, "perseas", "recover", 150, true},
    {kRebuildSegments, "perseas", "rebuild", 160, false},  // needs >= 2 mirror servers
    {kRebuildDone, "perseas", "rebuild", 170, false},      // needs >= 2 mirror servers
    {kRecoverDone, "perseas", "recover", 180, true},

    // Gathered SCI store sequences (netram/remote_memory.cpp); fires on the
    // PERSEAS engine's commit path, so it belongs to the perseas sweep.
    {kSciWritevBeforeBurst, "netram", "sci_writev", 10, true},

    // RVM write-ahead log (wal/rvm.cpp; rvm-disk / rvm-rio / rvm-nvram).
    {kRvmAfterUndo, "rvm", "set_range", 10, true},
    {kRvmAfterBuffer, "rvm", "commit", 20, true},
    {kRvmForceAfterBody, "rvm", "force", 30, true},
    {kRvmForceAfterMark, "rvm", "force", 40, true},
    {kRvmTruncateAfterPages, "rvm", "truncate", 50, true},
    {kRvmTruncateDone, "rvm", "truncate", 60, true},
    {kRvmCommitDone, "rvm", "commit", 70, true},
    {kRvmRecoverAfterImage, "rvm", "recover", 80, true},
    {kRvmRecoverAfterReplay, "rvm", "recover", 90, true},
    {kRvmRecoverDone, "rvm", "recover", 100, true},

    // Vista over the Rio cache (wal/vista.cpp).
    {kVistaAfterEntry, "vista", "set_range", 10, true},
    {kVistaAfterHeader, "vista", "set_range", 20, true},
    {kVistaCommitDone, "vista", "commit", 30, true},
    {kVistaRecoverAfterScan, "vista", "recover", 40, true},
    {kVistaRecoverAfterApply, "vista", "recover", 50, true},
    {kVistaRecoverDone, "vista", "recover", 60, true},
};

inline constexpr std::size_t kFailurePointCount = std::size(kFailurePoints);

/// A registered failure point: the index of its row in kFailurePoints.
/// Every PointId names a row, so code that holds one needs no lookup.
class PointId {
 public:
  /// Implicit, so notify(points::kCommitDone) and arm("perseas.commit.done", ...)
  /// read as plain names; consteval, so an unregistered name does not compile.
  consteval PointId(const char* name) : index_(index_of(name)) {}

  /// The row named `name`, or nullopt: the run-time lookup for input.
  [[nodiscard]] static constexpr std::optional<PointId> find(std::string_view name) noexcept {
    for (std::size_t i = 0; i < kFailurePointCount; ++i) {
      if (name == kFailurePoints[i].name) return PointId(i);
    }
    return std::nullopt;
  }

  /// Every registered point, in registry order.
  [[nodiscard]] static constexpr auto all() noexcept {
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return std::array<PointId, sizeof...(I)>{PointId(I)...};
    }(std::make_index_sequence<kFailurePointCount>{});
  }

  [[nodiscard]] constexpr std::size_t index() const noexcept { return index_; }
  [[nodiscard]] constexpr const FailurePoint& row() const noexcept {
    return kFailurePoints[index_];
  }
  [[nodiscard]] constexpr const char* name() const noexcept { return row().name; }

  friend constexpr bool operator==(PointId, PointId) noexcept = default;

 private:
  explicit constexpr PointId(std::size_t index) noexcept : index_(index) {}

  static consteval std::size_t index_of(const char* name) {
    const std::optional<PointId> id = find(name);
    if (!id) throw std::invalid_argument("unregistered failure point");
    return id->index();
  }

  std::size_t index_;
};

static_assert(PointId("perseas.commit.done").name() == std::string_view(kCommitDone));
static_assert(!PointId::find("perseas.commit.dome"));

namespace detail {
// Two points of one engine with the same order would make the V1
// write-ahead-ordering check vacuous between them.
constexpr bool orders_unique_per_engine() noexcept {
  for (std::size_t i = 0; i < kFailurePointCount; ++i) {
    for (std::size_t j = i + 1; j < kFailurePointCount; ++j) {
      if (std::string_view(kFailurePoints[i].engine) == kFailurePoints[j].engine &&
          kFailurePoints[i].order == kFailurePoints[j].order) {
        return false;
      }
    }
  }
  return true;
}
constexpr bool orders_positive() noexcept {
  for (const FailurePoint& p : kFailurePoints) {
    if (p.order <= 0) return false;
  }
  return true;
}
}  // namespace detail

static_assert(detail::orders_unique_per_engine(),
              "failure-point orders must be unique within an engine");
static_assert(detail::orders_positive(),
              "failure-point orders must be positive");

}  // namespace perseas::core::points

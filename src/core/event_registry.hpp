// The central flight-recorder event registry: every protocol event the
// obs::FlightRecorder can record, in one constexpr table — the companion
// of the failure-point registry in core/failure_points.hpp.
//
// FlightRecorder::record() takes an EventKind, so (like the injector's
// core::points::PointId) a typo'd kind cannot compile; what CAN rot is the
// table itself — a kind nobody records (dead row) or a row whose argument
// labels drifted from what the recording site actually passes.  The table
// closes that from three directions:
//   * source: every record() site names its kind via EventKind below, and
//     tools/perseas-lint.py rule F checks each `EventKind::k...` usage in
//     src/ against this table AND that every row is used somewhere (no
//     dead kinds), mirroring rule A for failure points;
//   * docs: the same rule keeps the table in docs/ANALYSIS.md §7
//     bidirectionally consistent with this one;
//   * dumps: the binary blackbox format embeds this table (id, name,
//     argument labels), so tools/perseas-blackbox.py renders a dump with
//     no access to the source tree.
//
// Columns: `category` groups kinds for the narrative renderer (txn |
// undo | sci | flag | recover | fault); `a`/`b`/`c` label the three
// payload words of the fixed-size event.  A label starting with '$'
// means the word is an index into the dump's string table: a
// failure-point registry row (PointId::index()) below
// kFailurePointCount, an interned string (recovery steps, anomaly
// messages) above it.  Empty labels mean the word is unused (recorded
// as zero).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perseas::core {

enum class EventKind : std::uint16_t {
  kTxnBegin = 1,
  kTxnCommitRequest,
  kTxnCommitted,
  kTxnAborted,
  kTxnConflict,
  kSetRange,
  kCoalesce,
  kUndoPush,
  kUndoGrow,
  kUndoTruncate,
  kSciBurst,
  kFlagSet,
  kFlagClear,
  kFailurePoint,
  kNodeCrash,
  kRecoverStep,
  kRecoverScan,
  kRecoverRollback,
  kRecoverDiscard,
  kAnomaly,
};

struct EventInfo {
  EventKind kind;
  const char* name;      ///< dotted, mirrors failure-point naming
  const char* category;  ///< txn | undo | sci | flag | recover | fault
  const char* a;         ///< label of payload word a ('$' = string-table id)
  const char* b;
  const char* c;
};

inline constexpr EventInfo kEventRegistry[] = {
    // Transaction lifecycle (core/perseas.cpp).
    {EventKind::kTxnBegin, "txn.begin", "txn", "open_txns", "", ""},
    {EventKind::kTxnCommitRequest, "txn.commit_request", "txn", "undo_entries", "declared_bytes", ""},
    {EventKind::kTxnCommitted, "txn.committed", "txn", "read_only", "", ""},
    {EventKind::kTxnAborted, "txn.aborted", "txn", "restored_bytes", "", ""},
    {EventKind::kTxnConflict, "txn.conflict", "txn", "holder_txn", "record", "offset"},
    {EventKind::kSetRange, "txn.set_range", "txn", "record", "offset", "size"},
    {EventKind::kCoalesce, "txn.coalesce", "txn", "record", "declared_bytes", "fresh_bytes"},

    // Shared remote undo log (core/undo_log.cpp).
    {EventKind::kUndoPush, "undo.push", "undo", "tail", "bytes", ""},
    {EventKind::kUndoGrow, "undo.grow", "undo", "old_capacity", "new_capacity", ""},
    {EventKind::kUndoTruncate, "undo.truncate", "undo", "old_tail", "", ""},

    // Charged SCI traffic (netram/cluster.cpp; txn 0 = unattributed).
    {EventKind::kSciBurst, "sci.burst", "sci", "node", "bytes", "write"},

    // The 16-byte propagation flag (core/mirror_set.cpp): txn.flag_set is
    // the announcement, txn.flag_clear THE commit point.
    {EventKind::kFlagSet, "flag.set", "flag", "mirror_node", "undo_tail", ""},
    {EventKind::kFlagClear, "flag.clear", "flag", "mirror_node", "", ""},

    // Faults: every sim::FailureInjector notify (any engine) and every
    // simulated machine crash.
    {EventKind::kFailurePoint, "fault.point", "fault", "$point", "hits", ""},
    {EventKind::kNodeCrash, "fault.node_crash", "fault", "node", "kind", ""},

    // Recovery (core/perseas_recover.cpp): the structured self-report.
    {EventKind::kRecoverStep, "recover.step", "recover", "$step", "announced_txn", "undo_bytes"},
    {EventKind::kRecoverScan, "recover.scan", "recover", "entries", "bytes", "checksum_ok"},
    {EventKind::kRecoverRollback, "recover.rollback", "recover", "record", "offset", "size"},
    {EventKind::kRecoverDiscard, "recover.discard", "recover", "entries", "", ""},

    // Any thrown errors.hpp error, mc violation, or failed recovery check;
    // recording one triggers the blackbox dump when PERSEAS_BLACKBOX is set.
    {EventKind::kAnomaly, "fault.anomaly", "fault", "$what", "", ""},
};

inline constexpr std::size_t kEventRegistryCount =
    sizeof(kEventRegistry) / sizeof(kEventRegistry[0]);

/// The registry row for `kind`, or nullptr when the kind is unregistered.
[[nodiscard]] constexpr const EventInfo* find_event(EventKind kind) noexcept {
  for (const EventInfo& e : kEventRegistry) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

[[nodiscard]] constexpr bool is_registered(EventKind kind) noexcept {
  return find_event(kind) != nullptr;
}

static_assert(is_registered(EventKind::kTxnBegin));
static_assert(is_registered(EventKind::kAnomaly));
static_assert(std::string_view(find_event(EventKind::kFlagClear)->name) == "flag.clear");

}  // namespace perseas::core

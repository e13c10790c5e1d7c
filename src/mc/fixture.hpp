// Engine fixtures for the crash-consistency model checker.
//
// A fixture owns one engine instance plus the entire simulated substrate it
// runs on (cluster, remote-memory server, disk, Rio cache): the checker
// builds one fresh fixture per exploration, so every replay starts from an
// identical world and the FailureInjector's hit counts start at zero.
//
// The fixture surface is deliberately NOT workload::TxnEngine: the checker
// needs crash / recover / hygiene operations that engines expose in
// engine-specific ways (and a recovered PERSEAS instance cannot be rebound
// into a PerseasEngine).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_points.hpp"
#include "netram/cluster.hpp"
#include "sim/failure.hpp"

namespace perseas::mc {

struct McFixtureOptions {
  std::uint64_t db_size = 1024;
  std::uint64_t seed = 0x1998;
  /// PERSEAS remote undo capacity; deliberately tiny so log growth
  /// (perseas.undo.after_growth) is part of the explored space.
  std::uint64_t perseas_undo_capacity = 256;
  /// RVM log capacity; deliberately small so long workloads reach
  /// truncation and its failure points.
  std::uint64_t rvm_log_capacity = 1 << 13;
};

class McFixture {
 public:
  virtual ~McFixture() = default;

  [[nodiscard]] virtual std::string_view engine_name() const noexcept = 0;
  [[nodiscard]] virtual netram::Cluster& cluster() noexcept = 0;
  /// The application's view of the flat database.
  [[nodiscard]] virtual std::span<std::byte> db() = 0;

  virtual void begin() = 0;
  virtual void set_range(std::uint64_t offset, std::uint64_t size) = 0;
  virtual void commit() = 0;

  // --- concurrent slots ------------------------------------------------
  // Engines able to keep several transactions open expose them as numbered
  // slots (mirrors workload::TxnEngine's slot surface); the interleaved
  // workload drives two.  Defaults: exactly one slot forwarding to the
  // classic entry points, so single-transaction engines need no changes.

  /// How many transactions this fixture can keep open at once.
  [[nodiscard]] virtual std::uint32_t max_slots() const noexcept { return 1; }
  virtual void begin_slot(std::uint32_t slot) {
    require_slot(slot);
    begin();
  }
  virtual void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) {
    require_slot(slot);
    set_range(offset, size);
  }
  virtual void commit_slot(std::uint32_t slot) {
    require_slot(slot);
    commit();
  }

  /// Takes the application node down with `kind` (the armed failure action
  /// calls this, then throws sim::NodeCrashed through the engine).
  virtual void crash(sim::FailureKind kind) = 0;
  /// Restarts the application node if it is down and runs the engine's
  /// recovery path; afterwards db() serves the recovered image.
  virtual void recover() = 0;
  /// Post-recovery log hygiene (no in-flight propagation flag, no
  /// replayable log residue).  Throws std::runtime_error on violation.
  virtual void check_hygiene() = 0;

  /// Failure points at or past the engine's commit point: a crash there
  /// must leave the in-flight transaction durable (recovery yields the
  /// post-image, never the pre-image).
  [[nodiscard]] virtual std::vector<core::points::PointId> committed_points() const = 0;
  /// Failure kinds this engine's substrate can recover from at all.
  [[nodiscard]] virtual std::vector<sim::FailureKind> supported_kinds() const = 0;

 protected:
  /// Rejects slots beyond max_slots() (checker bug, not an engine failure).
  void require_slot(std::uint32_t slot) const {
    if (slot >= max_slots()) {
      throw std::logic_error("McFixture: slot " + std::to_string(slot) + " exceeds the " +
                             std::to_string(max_slots()) + " slot(s) of engine '" +
                             std::string(engine_name()) + "'");
    }
  }
};

/// Engines make_fixture accepts: "perseas", "rvm-disk", "rvm-rio",
/// "rvm-nvram", "vista".
[[nodiscard]] std::vector<std::string> known_engines();

[[nodiscard]] std::unique_ptr<McFixture> make_fixture(const std::string& engine,
                                                      const McFixtureOptions& options);

}  // namespace perseas::mc

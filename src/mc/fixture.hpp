// The engine fixture of the crash-consistency model checker.
//
// A fixture is one workload::EngineLab: the engine plus the entire
// simulated substrate it runs on (cluster, remote-memory server, disk, Rio
// cache).  The checker builds one fresh fixture per exploration, so every
// replay starts from an identical world and the FailureInjector's hit
// counts start at zero.  The workload drives engine() — the same
// TxnEngine surface every bench and test uses — and recovery is the
// engine's own TxnEngine::recover().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_points.hpp"
#include "netram/cluster.hpp"
#include "sim/failure.hpp"
#include "workload/engines.hpp"

namespace perseas::mc {

/// Engines a fixture accepts: "perseas", "rvm-disk", "rvm-rio",
/// "rvm-nvram", "vista".
[[nodiscard]] std::vector<std::string> known_engines();

class McFixture {
 public:
  /// Throws std::invalid_argument for an engine known_engines() lacks.
  McFixture(std::string_view engine, std::uint64_t db_size, std::uint64_t seed);

  [[nodiscard]] workload::TxnEngine& engine() noexcept { return lab_.engine(); }
  [[nodiscard]] netram::Cluster& cluster() noexcept { return lab_.cluster(); }

  /// Takes the application node down with `kind` (the armed failure action
  /// calls this, then throws sim::NodeCrashed through the engine).
  void crash(sim::FailureKind kind) { cluster().crash_node(engine().app_node(), kind); }
  /// TxnEngine::recover(); afterwards engine().db() serves the recovered
  /// image.
  void recover() { (void)engine().recover(); }
  /// Post-recovery log hygiene, one invariant for every engine: a clean
  /// recovery leaves nothing to replay, so a second recover() applies no
  /// log record.  Throws std::runtime_error on violation.
  void check_hygiene();

  /// Failure points at or past the engine's commit point: a crash there
  /// must leave the in-flight transaction durable (recovery yields the
  /// post-image, never the pre-image).
  [[nodiscard]] std::vector<core::points::PointId> committed_points() const;
  /// Failure kinds this engine's substrate can recover from at all.
  [[nodiscard]] std::vector<sim::FailureKind> supported_kinds() const;

 private:
  workload::EngineLab lab_;
};

}  // namespace perseas::mc

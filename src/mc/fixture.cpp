#include "mc/fixture.hpp"

#include <array>
#include <stdexcept>

namespace perseas::mc {

namespace {

using workload::EngineKind;

constexpr std::array kEngines = {EngineKind::kPerseas, EngineKind::kRvmDisk,
                                 EngineKind::kRvmRio, EngineKind::kRvmNvram,
                                 EngineKind::kVista};

/// PERSEAS's remote undo log starts tiny so that log growth
/// (perseas.undo.after_growth) is part of the explored space.
constexpr std::uint64_t kPerseasUndoCapacity = 256;
/// RVM's log is small so that long workloads reach truncation and its
/// failure points.
constexpr std::uint64_t kRvmLogCapacity = 8 << 10;

workload::LabOptions lab_options(std::uint64_t db_size, std::uint64_t seed) {
  workload::LabOptions lo;
  lo.db_size = db_size;
  lo.seed = seed;
  lo.log_capacity = kRvmLogCapacity;
  lo.perseas.name = "mc";
  lo.perseas.undo_capacity = kPerseasUndoCapacity;
  return lo;
}

EngineKind engine_kind(std::string_view engine) {
  for (const EngineKind kind : kEngines) {
    if (workload::to_string(kind) == engine) return kind;
  }
  throw std::invalid_argument("McFixture: unknown engine '" + std::string(engine) + "'");
}

}  // namespace

std::vector<std::string> known_engines() {
  std::vector<std::string> names;
  for (const EngineKind kind : kEngines) names.emplace_back(workload::to_string(kind));
  return names;
}

McFixture::McFixture(std::string_view engine, std::uint64_t db_size, std::uint64_t seed)
    : lab_(engine_kind(engine), lab_options(db_size, seed)) {}

void McFixture::check_hygiene() {
  const std::uint64_t replayed = engine().recover();
  if (replayed != 0) {
    throw std::runtime_error("hygiene: second recovery replayed " + std::to_string(replayed) +
                             " log records");
  }
}

std::vector<core::points::PointId> McFixture::committed_points() const {
  if (lab_.kind() == EngineKind::kPerseas) {
    // Single-mirror configuration: the store clearing propagating_txn on
    // the (only) mirror IS the commit point.
    return {"perseas.commit.after_flag_clear", "perseas.commit.done"};
  }
  if (lab_.kind() == EngineKind::kVista) return {"vista.commit.done"};
  // group_commit_size is 1 here, so commit_transaction always forces: once
  // the record body is durable, replay applies it deterministically.
  // Truncation points stay ambiguous (the capacity-overflow path truncates
  // before the in-flight group is forced) and are excluded.
  return {"rvm.force.after_body", "rvm.force.after_mark", "rvm.commit.done"};
}

std::vector<sim::FailureKind> McFixture::supported_kinds() const {
  if (lab_.kind() == EngineKind::kVista || lab_.kind() == EngineKind::kRvmRio) {
    // The Rio cache (UPS-protected in EngineLab) survives software crashes
    // and power outages; a hardware fault destroys it.
    return {sim::FailureKind::kSoftwareCrash, sim::FailureKind::kPowerOutage};
  }
  // PERSEAS's mirror on node 1 and the RVM disk / NVRAM stores survive
  // every failure of the application node.
  return {sim::FailureKind::kSoftwareCrash, sim::FailureKind::kPowerOutage,
          sim::FailureKind::kHardwareFault};
}

}  // namespace perseas::mc

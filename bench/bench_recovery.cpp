// Section 3 claim: "PERSEAS provides efficient and simple recovery ...
// the recovery procedure can be started right-away in any available
// workstation allowing immediate recovery of the database".  Measures the
// simulated recovery time as a function of database size and of the commit
// stage at which the primary died.
#include <cstdio>
#include <cstring>
#include <optional>

#include "bench/bench_util.hpp"
#include "core/failure_points.hpp"
#include "core/perseas.hpp"

namespace {

using namespace perseas;

/// Builds a database of `db_size` bytes, optionally crashes the primary at
/// `crash_point` during a commit, and returns the simulated recovery time.
sim::SimDuration measure_recovery(std::uint64_t db_size,
                                  std::optional<core::points::PointId> crash_point) {
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
  netram::RemoteMemoryServer server(cluster, 1);
  core::PerseasConfig config;
  config.undo_capacity = std::max<std::uint64_t>(db_size / 4, 1 << 16);
  core::Perseas db(cluster, 0, {&server}, config);
  auto rec = db.persistent_malloc(db_size);
  db.init_remote_db();
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, std::min<std::uint64_t>(db_size, 4096));
    std::memset(rec.bytes().data(), 0x17, std::min<std::uint64_t>(db_size, 4096));
    txn.commit();
  }

  if (crash_point) {
    cluster.failures().arm(*crash_point, [&] {
      cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
      throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
    });
    try {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, std::min<std::uint64_t>(db_size, 16384));
      txn.commit();
    } catch (const sim::NodeCrashed&) {
    }
  } else {
    cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
  }

  const auto t0 = cluster.clock().now();
  auto recovered = core::Perseas::recover(cluster, 2, {&server});
  const auto elapsed = cluster.clock().now() - t0;
  if (recovered.record(0).bytes()[0] != std::byte{0x17}) {
    std::fprintf(stderr, "recovery produced wrong data!\n");
    std::abort();
  }
  return elapsed;
}

void print_recovery_tables() {
  bench::print_header("Recovery cost: vs database size and vs crash stage",
                      "Papathanasiou & Markatos 1997, section 3 (recovery narrative)");

  std::printf("--- recovery time vs database size (idle crash) ---\n");
  std::printf("%16s %16s\n", "db size (bytes)", "recovery");
  for (const std::uint64_t size : {64ULL << 10, 1ULL << 20, 4ULL << 20, 16ULL << 20}) {
    const auto d = measure_recovery(size, std::nullopt);
    std::printf("%16llu %16s\n", static_cast<unsigned long long>(size),
                sim::format_duration(d).c_str());
  }

  std::printf("\n--- recovery time vs crash stage (1 MB database) ---\n");
  std::printf("%-44s %16s\n", "crash stage", "recovery");
  const core::points::PointId stages[] = {
      "perseas.set_range.after_local_undo",
      "perseas.set_range.after_remote_undo",
      "perseas.commit.after_flag_set",
      "perseas.commit.after_range_copy",
      "perseas.commit.before_flag_clear",
  };
  for (const core::points::PointId stage : stages) {
    const auto d = measure_recovery(1 << 20, stage);
    std::printf("%-44s %16s\n", stage.name(), sim::format_duration(d).c_str());
  }
  std::printf("\nrecovery = reconnect + (optional) remote rollback + one remote-to-\n"
              "local copy per record; dominated by SCI read bandwidth, not disks.\n");
}

}  // namespace

int main() {
  print_recovery_tables();
}

// The observability contract: recording charges no simulated time and
// generates no simulated traffic.  Identical workloads with tracing
// (Cluster::set_trace / LabOptions::trace) on and off must leave the
// simulated clock and the network counters bit-for-bit identical, for every
// engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

namespace perseas::obs {
namespace {

/// The env vars force observability (or validation) on, so the off-path
/// cannot be exercised in such a run.
bool env_forces_observability() {
  return std::getenv("PERSEAS_TRACE") != nullptr ||
         std::getenv("PERSEAS_METRICS") != nullptr ||
         std::getenv("PERSEAS_VALIDATE_WRITES") != nullptr;
}

TEST(ObsOverhead, PerseasCostIdenticalWithTracingOnAndOff) {
  if (env_forces_observability()) GTEST_SKIP() << "observability forced on by environment";
  auto run = [](bool on) {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    TraceRecorder trace;
    if (on) cluster.set_trace(&trace, trace.register_track("overhead"));
    core::Perseas db(cluster, 0, {&server});
    auto rec = db.persistent_malloc(1024);
    db.init_remote_db();
    for (int t = 0; t < 20; ++t) {
      auto txn = db.begin_transaction();
      txn.set_range(rec, static_cast<std::uint64_t>(t % 4) * 256, 256);
      std::memset(rec.bytes().data() + (t % 4) * 256, t, 256);
      if (t % 5 == 0) {
        txn.abort();
      } else {
        txn.commit();
      }
    }
    EXPECT_EQ(trace.event_count() > 0, on);
    EXPECT_EQ(db.validator(), nullptr);
    return std::pair{cluster.clock().now(), cluster.stats().remote_write_bytes};
  };
  EXPECT_EQ(run(true), run(false));
}

/// Every EngineLab-assembled engine (exercising the cost scopes of PERSEAS
/// and the WAL engines over netram, disk and rio) must satisfy the same
/// contract.
TEST(ObsOverhead, EveryEngineCostIdenticalWithTracingOnAndOff) {
  if (env_forces_observability()) GTEST_SKIP() << "observability forced on by environment";
  for (const auto kind :
       {workload::EngineKind::kPerseas, workload::EngineKind::kVista,
        workload::EngineKind::kRvmRio, workload::EngineKind::kRvmDisk,
        workload::EngineKind::kRvmNvram, workload::EngineKind::kRemoteWal,
        workload::EngineKind::kFsMirror}) {
    auto run = [kind](bool on) {
      TraceRecorder trace;
      workload::LabOptions lo;
      lo.db_size = 1 << 16;
      if (on) lo.trace = &trace;
      workload::EngineLab lab(kind, lo);
      workload::SyntheticWorkload w(lab.engine(), 128);
      w.run(50);
      return std::pair{lab.cluster().clock().now(),
                       lab.cluster().stats().remote_write_bytes};
    };
    EXPECT_EQ(run(true), run(false)) << workload::to_string(kind);
  }
}

/// The flight recorder is always-on, so the identity is tested the other
/// way around: freezing it (set_enabled(false)) must change nothing the
/// simulation can observe — recording truly charges zero simulated time.
TEST(ObsOverhead, EveryEngineCostIdenticalWithFlightRecorderOnAndOff) {
  for (const auto kind :
       {workload::EngineKind::kPerseas, workload::EngineKind::kVista,
        workload::EngineKind::kRvmRio, workload::EngineKind::kRvmDisk,
        workload::EngineKind::kRvmNvram, workload::EngineKind::kRemoteWal,
        workload::EngineKind::kFsMirror}) {
    auto run = [kind](bool on) {
      workload::LabOptions lo;
      lo.db_size = 1 << 16;
      workload::EngineLab lab(kind, lo);
      lab.cluster().flight().set_enabled(on);
      workload::SyntheticWorkload w(lab.engine(), 128);
      w.run(50);
      if (on) {
        EXPECT_GT(lab.cluster().flight().recorded(), 0u);
      }
      return std::pair{lab.cluster().clock().now(),
                       lab.cluster().stats().remote_write_bytes};
    };
    EXPECT_EQ(run(true), run(false)) << workload::to_string(kind);
  }
}

/// Same contract for the cost ledger: attaching one only *observes* the
/// clock, so the attributed run must be cost-identical to the bare run —
/// and what it attributed must equal the clock delta exactly.
TEST(ObsOverhead, EveryEngineCostIdenticalWithLedgerAttachedAndNot) {
  for (const auto kind :
       {workload::EngineKind::kPerseas, workload::EngineKind::kVista,
        workload::EngineKind::kRvmRio, workload::EngineKind::kRvmDisk,
        workload::EngineKind::kRvmNvram, workload::EngineKind::kRemoteWal,
        workload::EngineKind::kFsMirror}) {
    auto run = [kind](bool on) {
      CostLedger ledger;
      workload::LabOptions lo;
      lo.db_size = 1 << 16;
      workload::EngineLab lab(kind, lo);
      const auto attach = lab.cluster().clock().now();
      if (on) lab.cluster().set_ledger(&ledger);
      workload::SyntheticWorkload w(lab.engine(), 128);
      w.run(50);
      if (on) {
        EXPECT_EQ(ledger.total_ns(), lab.cluster().clock().now() - attach)
            << workload::to_string(kind);
        lab.cluster().set_ledger(nullptr);
      }
      return std::pair{lab.cluster().clock().now(),
                       lab.cluster().stats().remote_write_bytes};
    };
    EXPECT_EQ(run(true), run(false)) << workload::to_string(kind);
  }
}

}  // namespace
}  // namespace perseas::obs

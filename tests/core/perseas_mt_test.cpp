// Real-concurrency stress tests: ≥4 OS threads driving one shared Perseas
// through the workload slot API — the first time the perseas::sync
// annotations (PR 6) and the concurrent core (PR 5) face actual parallel
// callers rather than single-threaded interleaving.  Run under TSan in CI
// (the analysis workflow's tsan leg reruns this binary by name).
//
// What must hold under threads, exactly and every run:
//   - the debit-credit balance invariants (sum at every level == sum of
//     committed deltas) after disjoint and forced-conflict runs;
//   - cost conservation: the shared clock's delta equals the sum of every
//     worker's busy time, and equals the CostLedger total when attached
//     (charges flow through per-thread sim::ThreadClock fronts and merge
//     at commit/conflict — see sim/clock.hpp);
//   - commits reach threads × txns_per_thread (conflict losers retry).
//   - every per-thread counter merges to the exact total: PerseasStats,
//     NetworkStats, the failure injector's hits and the blackbox's events
//     per kind, while one worker dumps the blackbox mid-run.
// Exact latency values are NOT asserted at threads > 1: shared undo-log
// allocation order depends on thread interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/event_registry.hpp"
#include "core/failure_points.hpp"
#include "core/perseas.hpp"
#include "obs/cost_ledger.hpp"
#include "sim/clock.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace perseas {
namespace {

workload::DebitCreditOptions bank_options() {
  workload::DebitCreditOptions o;
  o.branches = 8;  // partitions evenly across up to 8 workers
  o.tellers_per_branch = 10;
  o.accounts_per_branch = 200;
  return o;
}

struct MtLab {
  workload::LabOptions lo;
  workload::EngineLab lab;
  workload::DebitCredit bank;

  explicit MtLab(const workload::DebitCreditOptions& o)
      : lo([&o] {
          workload::LabOptions l;
          l.db_size = workload::DebitCredit::required_db_size(o);
          l.perseas.undo_capacity = 4 << 20;
          return l;
        }()),
        lab(workload::EngineKind::kPerseas, lo),
        bank(lab.engine(), o) {
    bank.load();
  }
};

TEST(PerseasMtTest, DisjointWorkloadCommitsEverythingAndConservesCost) {
  const auto o = bank_options();
  MtLab t(o);

  obs::CostLedger ledger;
  t.lab.cluster().set_ledger(&ledger);
  const sim::SimTime attach = t.lab.cluster().clock().now();

  workload::MtOptions mo;
  mo.threads = 4;
  mo.txns_per_thread = 50;
  mo.app_compute = o.app_compute;
  const auto r = workload::run_mt_debit_credit(t.lab.engine(), t.bank, mo);

  const auto clock_delta = t.lab.cluster().clock().now() - attach;
  t.lab.cluster().set_ledger(nullptr);

  EXPECT_EQ(r.commits, 4u * 50u);
  EXPECT_EQ(r.conflicts, 0u) << "disjoint partitions must never collide";
  ASSERT_EQ(r.workers.size(), 4u);
  for (const auto& w : r.workers) {
    EXPECT_EQ(w.commits, 50u);
    EXPECT_EQ(w.latencies.size(), 50u);
    EXPECT_GT(w.busy_ns, 0);
  }
  // Conservation, exact: the shared clock absorbed precisely the workers'
  // merged charges, and the ledger booked every one of those nanoseconds.
  EXPECT_EQ(r.total_work_ns, clock_delta);
  EXPECT_EQ(static_cast<sim::SimDuration>(ledger.total_ns()), clock_delta);
  // The parallel timeline is shorter than the total work (4 workers) but
  // at least work/threads (the slowest worker bounds below the average).
  EXPECT_LT(r.makespan_ns, r.total_work_ns);
  EXPECT_GE(r.makespan_ns * 4, r.total_work_ns);

  EXPECT_NO_THROW(t.bank.check_invariants());
}

/// Forwards to an engine; after every 5th commit of slot 0 it dumps the
/// cluster's blackbox, so one worker reads the recorder while the others
/// record into it.
class DumpingEngine final : public workload::TxnEngine {
 public:
  DumpingEngine(workload::TxnEngine& inner, std::string path)
      : inner_(&inner), path_(std::move(path)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return inner_->cluster(); }
  [[nodiscard]] netram::NodeId app_node() const noexcept override {
    return inner_->app_node();
  }
  [[nodiscard]] std::span<std::byte> db() override { return inner_->db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return inner_->db_size(); }
  [[nodiscard]] std::uint32_t max_open_txns() const noexcept override {
    return inner_->max_open_txns();
  }
  void begin() override { inner_->begin(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    inner_->set_range(offset, size);
  }
  void commit() override { inner_->commit(); }
  void abort() override { inner_->abort(); }
  void begin_slot(std::uint32_t slot) override { inner_->begin_slot(slot); }
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override {
    inner_->set_range_slot(slot, offset, size);
  }
  void commit_slot(std::uint32_t slot) override {
    inner_->commit_slot(slot);
    if (slot == 0 && ++commits_ % 5 == 0) {
      inner_->cluster().flight().dump(path_);
      ++dumps_;
    }
  }
  void abort_slot(std::uint32_t slot) override { inner_->abort_slot(slot); }

  /// Read after the run (slot 0's worker is the only writer).
  [[nodiscard]] std::uint64_t dumps() const noexcept { return dumps_; }

 private:
  workload::TxnEngine* inner_;
  std::string path_;
  std::uint64_t commits_ = 0;
  std::uint64_t dumps_ = 0;
};

TEST(PerseasMtTest, ParallelWorkersBookEveryCounterExactly) {
  const auto o = bank_options();
  MtLab t(o);
  auto& engine = static_cast<workload::PerseasEngine&>(t.lab.engine());
  netram::Cluster& cluster = t.lab.cluster();
  const core::Perseas& db = engine.perseas();

  // One transaction on one worker gives the per-transaction counts.
  workload::MtOptions mo;
  mo.threads = 1;
  mo.txns_per_thread = 1;
  mo.app_compute = o.app_compute;
  const sim::FailureInjector::HitCounts hits0 = cluster.failures().snapshot();
  const std::uint64_t writes0 = cluster.stats().remote_writes;
  ASSERT_EQ(workload::run_mt_debit_credit(engine, t.bank, mo).commits, 1u);
  const sim::FailureInjector::HitCounts hits1 = cluster.failures().snapshot();
  const std::uint64_t writes_per_txn = cluster.stats().remote_writes - writes0;
  ASSERT_GT(writes_per_txn, 0u);

  const core::PerseasStats stats0 = db.stats();
  const std::uint64_t recorded0 = cluster.flight().recorded();
  obs::CostLedger ledger;
  cluster.set_ledger(&ledger);
  const sim::SimTime attach = cluster.clock().now();

  DumpingEngine dumping(engine, ::testing::TempDir() + "perseas_mt_blackbox.bin");
  mo.threads = 4;
  mo.txns_per_thread = 20;  // the whole batch fits the blackbox's ring
  const auto r = workload::run_mt_debit_credit(dumping, t.bank, mo);

  const sim::SimDuration clock_delta = cluster.clock().now() - attach;
  cluster.set_ledger(nullptr);
  const std::uint64_t commits = r.commits;
  ASSERT_EQ(commits, 4u * 20u);
  EXPECT_EQ(r.conflicts, 0u);
  EXPECT_EQ(static_cast<sim::SimDuration>(ledger.total_ns()), clock_delta);

  const core::PerseasStats stats1 = db.stats();
  EXPECT_EQ(stats1.txns_committed - stats0.txns_committed, commits);
  EXPECT_EQ(stats1.set_ranges - stats0.set_ranges, 4 * commits);

  const sim::FailureInjector::HitCounts hits2 = cluster.failures().snapshot();
  for (const core::points::PointId point : core::points::PointId::all()) {
    const std::size_t i = point.index();
    EXPECT_EQ(hits2[i] - hits1[i], (hits1[i] - hits0[i]) * commits) << point.name();
  }
  EXPECT_EQ(cluster.stats().remote_writes - writes0, writes_per_txn * (commits + 1));

  const std::uint64_t batch_events = cluster.flight().recorded() - recorded0;
  ASSERT_LE(batch_events, cluster.flight().capacity()) << "the ring lost part of the batch";
  const std::vector<obs::FlightEvent> events = cluster.flight().events(batch_events);
  const auto count = [&events](core::EventKind kind) {
    return static_cast<std::uint64_t>(std::count_if(
        events.begin(), events.end(), [kind](const obs::FlightEvent& e) { return e.kind == kind; }));
  };
  EXPECT_EQ(count(core::EventKind::kTxnCommitted), commits);
  EXPECT_EQ(count(core::EventKind::kSetRange), 4 * commits);

  EXPECT_EQ(dumping.dumps(), 4u);
  std::ifstream dump(::testing::TempDir() + "perseas_mt_blackbox.bin", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(dump)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.substr(0, 8), "PSEASFR1");
  EXPECT_NO_THROW(t.bank.check_invariants());
}

TEST(PerseasMtTest, DisjointThroughputScalesAcrossThreads) {
  const auto o = bank_options();
  const auto run = [&o](std::uint32_t threads) {
    MtLab t(o);
    workload::MtOptions mo;
    mo.threads = threads;
    mo.txns_per_thread = 50;
    mo.app_compute = o.app_compute;
    const auto r = workload::run_mt_debit_credit(t.lab.engine(), t.bank, mo);
    t.bank.check_invariants();
    return r.txns_per_second();
  };
  const double one = run(1);
  const double four = run(4);
  ASSERT_GT(one, 0.0);
  // The acceptance floor for the threaded frontend: simulated throughput
  // at 4 threads on disjoint partitions beats 1.5x the 1-thread run (it
  // lands near 4x — the timelines overlap almost fully).
  EXPECT_GT(four, 1.5 * one) << "4-thread speedup " << four / one << "x under the floor";
}

TEST(PerseasMtTest, ForcedConflictsLoseRecoverAndKeepTheBooks) {
  const auto o = bank_options();
  MtLab t(o);
  auto& engine = t.lab.engine();
  ASSERT_GE(engine.max_open_txns(), 5u);

  // A victim transaction on a spare slot, held by the main thread for the
  // whole run, claims branch 0's row — the row every raid declares last.
  // Every raid therefore loses deterministically, whatever the thread
  // timing; worker 0's own picks of branch 0 lose too and retry until
  // they land on its other branch.
  engine.begin_slot(4);
  engine.set_range_slot(4, 0, workload::DebitCredit::kRowBytes);

  obs::CostLedger ledger;
  t.lab.cluster().set_ledger(&ledger);
  const sim::SimTime attach = t.lab.cluster().clock().now();

  workload::MtOptions mo;
  mo.threads = 4;
  mo.txns_per_thread = 40;
  mo.conflict_every = 8;  // workers 1..3 raid partition 0 every 8th txn
  mo.app_compute = o.app_compute;
  const auto r = workload::run_mt_debit_credit(engine, t.bank, mo);

  const auto clock_delta = t.lab.cluster().clock().now() - attach;
  t.lab.cluster().set_ledger(nullptr);
  engine.abort_slot(4);  // release the victim's claim

  EXPECT_EQ(r.commits, 4u * 40u) << "every loser must retry to a commit";
  // 3 raiding workers × (40 / 8) raids each, all guaranteed losses; worker
  // 0 may add more (its legitimate branch-0 picks hit the victim too).
  EXPECT_GE(r.conflicts, 3u * 5u);
  EXPECT_EQ(r.total_work_ns, clock_delta);
  EXPECT_EQ(static_cast<sim::SimDuration>(ledger.total_ns()), clock_delta);
  EXPECT_NO_THROW(t.bank.check_invariants());
}

TEST(PerseasMtTest, EightThreadsHammerOneEngine) {
  // Max-width smoke for TSan: all eight slots live at once, smaller txn
  // count so the sanitizer run stays fast.
  const auto o = bank_options();
  MtLab t(o);
  workload::MtOptions mo;
  mo.threads = 8;
  mo.txns_per_thread = 25;
  mo.conflict_every = 10;
  mo.app_compute = o.app_compute;
  const auto r = workload::run_mt_debit_credit(t.lab.engine(), t.bank, mo);
  EXPECT_EQ(r.commits, 8u * 25u);
  EXPECT_NO_THROW(t.bank.check_invariants());
}

}  // namespace
}  // namespace perseas

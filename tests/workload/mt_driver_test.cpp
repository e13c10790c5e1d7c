// The worker pool behind both threaded workloads (workload/mt_driver.hpp):
// run_contention under each concurrency-control policy, per-worker
// determinism of one worker's latencies, argument rejection, the
// per-transaction attempt cap, a worker failing before the start gate,
// and the row-space check.  The analysis workflow's TSan leg reruns this
// binary by name.
#include "workload/mt_driver.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/perseas_config.hpp"
#include "workload/engines.hpp"

namespace perseas::workload {
namespace {

LabOptions contention_lab(const ContentionOptions& co,
                          core::CcPolicyKind policy = core::CcPolicyKind::kFirstWriterWins) {
  LabOptions lo;
  lo.db_size = co.rows * co.row_bytes;
  lo.perseas.undo_capacity = 4 << 20;
  lo.perseas.cc_policy = policy;
  return lo;
}

DebitCreditOptions bank_options() {
  DebitCreditOptions o;
  o.branches = 2;
  o.tellers_per_branch = 5;
  o.accounts_per_branch = 100;
  o.history_capacity = 64;
  return o;
}

LabOptions bank_lab() {
  LabOptions lo;
  lo.db_size = DebitCredit::required_db_size(bank_options());
  return lo;
}

class PolicyContention : public ::testing::TestWithParam<core::CcPolicyKind> {};

TEST_P(PolicyContention, HotSpotCommitsEverythingAndKeepsTheBooks) {
  const core::CcPolicyKind policy = GetParam();
  ContentionOptions co;
  co.threads = 4;
  co.txns_per_thread = 50;
  co.rows = 64;
  co.theta = 0.99;
  EngineLab lab(EngineKind::kPerseas, contention_lab(co, policy));

  const sim::SimTime before = lab.cluster().clock().now();
  const PoolResult r = run_contention(lab.engine(), co);

  EXPECT_EQ(r.commits, 4u * 50u) << "every loss must retry to a commit";
  EXPECT_LE(r.wounded + r.validation_failed, r.conflicts);
  if (policy != core::CcPolicyKind::kWaitDie) {
    EXPECT_EQ(r.wounded, 0u);
  }
  if (policy != core::CcPolicyKind::kValidateAtCommit) {
    EXPECT_EQ(r.validation_failed, 0u);
  }
  EXPECT_EQ(r.total_work_ns, lab.cluster().clock().now() - before);
}

INSTANTIATE_TEST_SUITE_P(WorkerPool, PolicyContention,
                         ::testing::Values(core::CcPolicyKind::kFirstWriterWins,
                                           core::CcPolicyKind::kWaitDie,
                                           core::CcPolicyKind::kValidateAtCommit));

TEST(WorkerPool, OneWorkerLatenciesAreTheSameOnEveryFreshLab) {
  const auto debit_credit = [] {
    EngineLab lab(EngineKind::kPerseas, bank_lab());
    DebitCredit bank(lab.engine(), bank_options());
    bank.load();
    MtOptions mo;
    mo.threads = 1;
    mo.txns_per_thread = 50;
    mo.seed = 7;
    const PoolResult r = run_mt_debit_credit(lab.engine(), bank, mo);
    bank.check_invariants();
    return r.workers.at(0).latencies;
  };
  const auto contention = [] {
    ContentionOptions co;
    co.threads = 1;
    co.txns_per_thread = 50;
    co.seed = 7;
    co.theta = 0.9;
    EngineLab lab(EngineKind::kPerseas, contention_lab(co));
    return run_contention(lab.engine(), co).workers.at(0).latencies;
  };
  const auto dc = debit_credit();
  EXPECT_EQ(dc.size(), 50u);
  EXPECT_EQ(dc, debit_credit());
  const auto cc = contention();
  EXPECT_EQ(cc.size(), 50u);
  EXPECT_EQ(cc, contention());
}

TEST(WorkerPool, RejectsRunsWithoutThreadsSlotsOrPartitions) {
  for (const std::uint32_t threads : {0u, 2u}) {
    // Zero threads on PERSEAS; two on Vista, which keeps one txn open.
    const EngineKind kind = threads == 0 ? EngineKind::kPerseas : EngineKind::kVista;
    EngineLab lab(kind, bank_lab());
    DebitCredit bank(lab.engine(), bank_options());
    bank.load();
    MtOptions mo;
    mo.threads = threads;
    EXPECT_THROW((void)run_mt_debit_credit(lab.engine(), bank, mo), std::invalid_argument);
    ContentionOptions co;
    co.threads = threads;
    co.rows = 16;
    EXPECT_THROW((void)run_contention(lab.engine(), co), std::invalid_argument);
  }
  // More workers than branches cannot partition the bank.
  EngineLab lab(EngineKind::kPerseas, bank_lab());
  DebitCredit bank(lab.engine(), bank_options());
  bank.load();
  MtOptions mo;
  mo.threads = 4;
  EXPECT_THROW((void)run_mt_debit_credit(lab.engine(), bank, mo), std::invalid_argument);
}

TEST(WorkerPool, AttemptCapEndsARunThatCanNeverCommit) {
  ContentionOptions co;
  co.threads = 1;
  co.txns_per_thread = 1;
  co.rows = 1;
  co.write_ratio = 1.0;
  EngineLab lab(EngineKind::kPerseas, contention_lab(co));
  TxnEngine& engine = lab.engine();

  // A victim on a spare slot holds the only row for the whole run, so
  // every attempt loses.
  engine.begin_slot(co.threads);
  engine.set_range_slot(co.threads, 0, co.row_bytes);
  EXPECT_THROW((void)run_contention(engine, co), std::runtime_error);
  engine.abort_slot(co.threads);

  // The capped worker left no slot open: the same engine runs clean.
  EXPECT_EQ(run_contention(engine, co).commits, 1u);
}

TEST(WorkerPool, AWorkerThatFailsBeforeTheStartGateEndsTheRun) {
  ContentionOptions co;
  co.threads = 2;
  co.txns_per_thread = std::numeric_limits<std::uint64_t>::max();  // reserve() throws
  co.rows = 16;
  EngineLab lab(EngineKind::kPerseas);
  EXPECT_THROW((void)run_contention(lab.engine(), co), std::length_error);
}

TEST(WorkerPool, RowSpaceCheckDoesNotWrap) {
  ContentionOptions co;
  co.rows = 2;
  co.row_bytes = std::uint64_t{1} << 63;  // rows * row_bytes wraps to 0
  EngineLab lab(EngineKind::kPerseas);
  EXPECT_THROW((void)run_contention(lab.engine(), co), std::invalid_argument);
}

}  // namespace
}  // namespace perseas::workload

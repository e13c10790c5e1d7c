#include "workload/debit_credit.hpp"

#include <gtest/gtest.h>

#include "workload/engines.hpp"

namespace perseas::workload {
namespace {

DebitCreditOptions small_options() {
  DebitCreditOptions o;
  o.branches = 2;
  o.tellers_per_branch = 5;
  o.accounts_per_branch = 100;
  o.history_capacity = 64;
  return o;
}

EngineLab make_lab(EngineKind kind, const DebitCreditOptions& o) {
  LabOptions lo;
  lo.db_size = DebitCredit::required_db_size(o);
  return EngineLab(kind, lo);
}

TEST(DebitCredit, RequiredSizeAccountsForAllTables) {
  const auto o = small_options();
  // 2 branches + 10 tellers + 200 accounts rows, 64 history slots, cursor.
  const std::uint64_t expected = (2 + 10 + 200) * 100 + 64 * 50 + 8;
  EXPECT_EQ(DebitCredit::required_db_size(o), expected);
}

TEST(DebitCredit, TooSmallDatabaseRejected) {
  LabOptions lo;
  lo.db_size = 128;
  EngineLab lab(EngineKind::kVista, lo);
  EXPECT_THROW(DebitCredit(lab.engine(), small_options()), std::invalid_argument);
}

TEST(DebitCredit, InvariantsHoldAfterLoad) {
  auto lab = make_lab(EngineKind::kPerseas, small_options());
  DebitCredit w(lab.engine(), small_options());
  w.load();
  EXPECT_NO_THROW(w.check_invariants());
  EXPECT_EQ(w.expected_total(), 0);
}

TEST(DebitCredit, InvariantsHoldAfterManyTransactions) {
  auto lab = make_lab(EngineKind::kPerseas, small_options());
  DebitCredit w(lab.engine(), small_options());
  w.load();
  const auto result = w.run(500);
  EXPECT_EQ(result.transactions, 500u);
  EXPECT_NO_THROW(w.check_invariants());
}

TEST(DebitCredit, HistoryWrapsAround) {
  auto o = small_options();
  o.history_capacity = 16;
  auto lab = make_lab(EngineKind::kPerseas, o);
  DebitCredit w(lab.engine(), o);
  w.load();
  w.run(50);  // > capacity: the circular file wrapped
  EXPECT_NO_THROW(w.check_invariants());
}

TEST(DebitCredit, InvariantsHoldOnEveryEngine) {
  for (const auto kind : {EngineKind::kVista, EngineKind::kRvmRio, EngineKind::kRemoteWal,
                          EngineKind::kRvmNvram, EngineKind::kFsMirror}) {
    auto lab = make_lab(kind, small_options());
    DebitCredit w(lab.engine(), small_options());
    w.load();
    w.run(100);
    EXPECT_NO_THROW(w.check_invariants()) << to_string(kind);
  }
}

TEST(DebitCredit, FourRowUpdatesPerTransaction) {
  auto lab = make_lab(EngineKind::kPerseas, small_options());
  auto& perseas_engine = dynamic_cast<PerseasEngine&>(lab.engine());
  DebitCredit w(lab.engine(), small_options());
  w.load();
  const auto before = perseas_engine.perseas().stats().set_ranges;
  w.run_one();
  // account + teller + branch + history slot + history cursor.
  EXPECT_EQ(perseas_engine.perseas().stats().set_ranges - before, 5u);
}

TEST(DebitCredit, ThroughputMatchesPaperBallparkOnPerseas) {
  DebitCreditOptions o;  // default: 4 branches, TPC-B-ish scale
  LabOptions lo;
  lo.db_size = DebitCredit::required_db_size(o);
  EngineLab lab(EngineKind::kPerseas, lo);
  DebitCredit w(lab.engine(), o);
  w.load();
  const auto result = w.run(2'000);
  // Paper table 1: > 20,000 debit-credit transactions per second.
  EXPECT_GT(result.txns_per_second(), 20'000.0);
  EXPECT_LT(result.txns_per_second(), 100'000.0);
}

TEST(DebitCredit, DeterministicForFixedSeed) {
  auto lab1 = make_lab(EngineKind::kPerseas, small_options());
  auto lab2 = make_lab(EngineKind::kPerseas, small_options());
  DebitCredit w1(lab1.engine(), small_options(), /*seed=*/3);
  DebitCredit w2(lab2.engine(), small_options(), /*seed=*/3);
  w1.load();
  w2.load();
  EXPECT_EQ(w1.run(100).elapsed, w2.run(100).elapsed);
  EXPECT_EQ(w1.expected_total(), w2.expected_total());
}

}  // namespace
}  // namespace perseas::workload

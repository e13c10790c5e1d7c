// obs::CostLedger: the conservation law `sum(ledger) == clock delta` must
// hold EXACTLY — under interleaved transactions, coalesced write sets, and
// a full crash + recovery — because the ledger observes every clock
// advance, not the individual charge sites.  Threads book into their own
// shards; the reads after a join merge them to one row per key.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace perseas::obs {
namespace {

constexpr std::uint64_t kRecSize = 4096;

class CostLedgerTest : public ::testing::Test {
 protected:
  CostLedgerTest() : cluster_(sim::HardwareProfile::forth_1997(), 3), server_(cluster_, 1) {}

  core::Perseas& make_db(core::PerseasConfig config = {}) {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_}, config);
    (void)db_->persistent_malloc(kRecSize);
    db_->init_remote_db();
    return *db_;
  }

  /// Attaches the ledger and remembers the clock at attach time; every
  /// test ends by checking conservation against this origin.
  void attach() {
    cluster_.set_ledger(&ledger_);
    attach_time_ = cluster_.clock().now();
  }

  void expect_conservation() {
    const auto delta = cluster_.clock().now() - attach_time_;
    EXPECT_EQ(ledger_.total_ns(), delta)
        << "every charged nanosecond must be attributed";
    // The by-phase aggregation is a regrouping, never a re-measurement.
    sim::SimDuration by_phase_sum = 0;
    for (const auto& [phase, ns] : ledger_.by_phase()) by_phase_sum += ns;
    EXPECT_EQ(by_phase_sum, ledger_.total_ns());
    std::uint64_t row_bytes = 0;
    sim::SimDuration row_ns = 0;
    for (const auto& e : ledger_.entries()) {
      row_ns += e.ns;
      row_bytes += e.bytes;
    }
    EXPECT_EQ(row_ns, ledger_.total_ns());
    EXPECT_EQ(row_bytes, ledger_.total_bytes());
  }

  bool has_phase(const std::string& phase) const {
    for (const auto& e : ledger_.entries()) {
      if (e.key.phase == phase) return true;
    }
    return false;
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  std::optional<core::Perseas> db_;
  CostLedger ledger_;
  sim::SimTime attach_time_ = 0;
};

TEST_F(CostLedgerTest, ConservationUnderInterleavedTransactions) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  for (int round = 0; round < 5; ++round) {
    auto t1 = db.begin_transaction();
    auto t2 = db.begin_transaction();
    t1.set_range(rec, 0, 256);
    t2.set_range(rec, 1024, 256);
    std::memset(rec.bytes().data(), round, 256);
    std::memset(rec.bytes().data() + 1024, round + 1, 256);
    t1.set_range(rec, 512, 128);
    std::memset(rec.bytes().data() + 512, round, 128);
    t2.commit();
    t1.commit();
  }
  expect_conservation();
  EXPECT_GT(ledger_.total_ns(), 0);
  EXPECT_GT(ledger_.total_bytes(), 0u);
  // Both transactions' ids appear as distinct attribution keys.
  std::vector<std::uint64_t> txns;
  for (const auto& e : ledger_.entries()) {
    if (e.key.txn != 0 &&
        std::find(txns.begin(), txns.end(), e.key.txn) == txns.end()) {
      txns.push_back(e.key.txn);
    }
  }
  EXPECT_GE(txns.size(), 10u);
  for (const char* phase : {"begin", "set_range", "local_undo", "remote_undo",
                            "commit", "flag_set", "propagate", "flag_clear"}) {
    EXPECT_TRUE(has_phase(phase)) << phase;
  }
}

TEST_F(CostLedgerTest, ConservationUnderCoalescedWriteSets) {
  core::PerseasConfig config;
  config.coalesce_ranges = true;
  auto& db = make_db(config);
  attach();
  auto rec = db.record(0);
  for (int round = 0; round < 8; ++round) {
    auto txn = db.begin_transaction();
    // Overlapping declarations: the coalescing layer merges these, so the
    // charges the ledger books differ from the naive sum — conservation
    // must hold regardless.
    txn.set_range(rec, 0, 512);
    std::memset(rec.bytes().data(), round, 512);
    txn.set_range(rec, 256, 512);
    std::memset(rec.bytes().data() + 256, round, 512);
    txn.set_range(rec, 128, 128);
    txn.commit();
  }
  expect_conservation();
  EXPECT_GT(db.stats().ranges_coalesced, 0u);
}

TEST_F(CostLedgerTest, ConservationAcrossCrashAndRecovery) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memcpy(rec.bytes().data(), "COMMITTED.......", 16);
    txn.commit();
  }
  cluster_.failures().arm("perseas.commit.before_flag_clear", [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
  });
  EXPECT_THROW(
      {
        auto txn = db.begin_transaction();
        txn.set_range(rec, 0, 64);
        std::memcpy(rec.bytes().data(), "DIRTY...........", 16);
        txn.commit();
      },
      sim::NodeCrashed);
  cluster_.restart_node(0);
  auto recovered = core::Perseas::recover(cluster_, 0, {&server_});
  EXPECT_TRUE(recovered.recovery_report().ran);
  expect_conservation();
  // Recovery work is booked under its own (txn=0) phase.
  EXPECT_TRUE(has_phase("recover"));
}

TEST_F(CostLedgerTest, ToJsonCarriesRowsAndTotals) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 128);
  std::memset(rec.bytes().data(), 1, 128);
  txn.commit();
  expect_conservation();
  const std::string json = ledger_.to_json().dump();
  EXPECT_NE(json.find("\"rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"by_phase\":"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"remote_undo\""), std::string::npos);
}

// Scopes chain per thread: a charge made on a spawned worker books to the
// scope that worker opened (or, with none open, to the root row), never to
// the scope the main thread still has open.
TEST(CostLedgerWorkers, ScopesAreKeyedByWorker) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);
  const CostSinks sinks{&ledger, nullptr, 0, &clock};
  {
    const ScopedCost main_scope(sinks, 1, "main", "test", "-");
    clock.advance(3);
    std::thread worker([&clock, &sinks] {
      sim::ThreadClock tc(clock, 7);
      clock.advance(10);  // the worker has no scope open: root row
      const ScopedCost scope(sinks, 2, "worker", "test", "-");
      clock.advance(5);
    });
    worker.join();
    clock.advance(4);  // the main thread again: back to "main"
  }

  sim::SimDuration main_ns = 0;
  sim::SimDuration worker_ns = 0;
  sim::SimDuration root_ns = 0;
  for (const auto& e : ledger.entries()) {
    if (e.key.phase == "main") main_ns = e.ns;
    if (e.key.phase == "worker") worker_ns = e.ns;
    if (e.key.phase == "unattributed") root_ns = e.ns;
  }
  EXPECT_EQ(main_ns, 7);
  EXPECT_EQ(worker_ns, 5);
  EXPECT_EQ(root_ns, 10);
  EXPECT_EQ(ledger.total_ns(), clock.now()) << "conservation across workers";
}

// Threads without a sim::ThreadClock each have their own chain too: two
// plain threads, both inside a scope at once, book exactly their own
// charges.
TEST(CostLedgerThreads, PlainThreadsBookToTheirOwnScope) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);
  const CostSinks sinks{&ledger, nullptr, 0, &clock};
  constexpr int kCharges = 1'000;
  std::barrier sync(2);
  const auto body = [&](std::string_view phase, sim::SimDuration per_charge) {
    const ScopedCost scope(sinks, 1, phase, "test", "-");
    sync.arrive_and_wait();  // both scopes are open before either charges
    for (int i = 0; i < kCharges; ++i) clock.advance(per_charge);
    sync.arrive_and_wait();  // and stay open until both are done
  };
  std::thread a(body, "a", 1);
  std::thread b(body, "b", 2);
  a.join();
  b.join();

  sim::SimDuration a_ns = 0;
  sim::SimDuration b_ns = 0;
  for (const auto& e : ledger.entries()) {
    if (e.key.phase == "a") a_ns = e.ns;
    if (e.key.phase == "b") b_ns = e.ns;
  }
  EXPECT_EQ(a_ns, kCharges * 1);
  EXPECT_EQ(b_ns, kCharges * 2);
  EXPECT_EQ(ledger.total_ns(), clock.now());
}

// Concurrent attribution: racing workers, each inside its own scope, book
// exactly their own charges — per-row totals and the conservation law are
// exact whatever the interleaving.
TEST(CostLedgerWorkers, ConcurrentChargesLandInTheChargingThreadsScope) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);
  constexpr int kThreads = 4;
  constexpr int kCharges = 500;
  // Rows keep views of their names after the scope closes: literals only.
  constexpr std::array<std::string_view, kThreads> kPhases = {"w0", "w1", "w2", "w3"};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, &ledger, &kPhases, t] {
      sim::ThreadClock tc(clock, static_cast<std::uint32_t>(t) + 1);
      const ScopedCost scope(CostSinks{&ledger, nullptr, 0, &clock},
                             static_cast<std::uint64_t>(t) + 1, kPhases[t], "test", "-");
      for (int i = 0; i < kCharges; ++i) {
        clock.advance(t + 1);  // worker t charges (t+1) ns per op
        if (i % 50 == 49) tc.merge();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    sim::SimDuration ns = 0;
    for (const auto& e : ledger.entries()) {
      if (e.key.phase == kPhases[t]) ns += e.ns;
    }
    EXPECT_EQ(ns, static_cast<sim::SimDuration>(t + 1) * kCharges)
        << "worker " << t << " row must hold exactly its own charges";
  }
  EXPECT_EQ(ledger.total_ns(), clock.now());
}

// A pooled batch: four workers each book into their own shard, and the
// read after the join merges them.  Every key is one row, the rows add up
// to the clock delta, and each phase time PerseasStats measured from its
// scopes equals that phase's rows.
TEST(CostLedgerThreads, WorkerBatchMergesToOneRowPerKey) {
  workload::DebitCreditOptions o;
  o.branches = 4;
  o.tellers_per_branch = 5;
  o.accounts_per_branch = 100;
  workload::LabOptions lo;
  lo.db_size = workload::DebitCredit::required_db_size(o);
  lo.perseas.undo_capacity = 4 << 20;
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  workload::DebitCredit bank(lab.engine(), o);
  bank.load();
  const core::Perseas& db = static_cast<workload::PerseasEngine&>(lab.engine()).perseas();
  const core::PerseasStats before = db.stats();

  CostLedger ledger;
  lab.cluster().set_ledger(&ledger);
  const sim::SimTime attach = lab.cluster().clock().now();
  workload::MtOptions mo;
  mo.threads = 4;
  mo.txns_per_thread = 100;
  mo.app_compute = o.app_compute;
  const workload::PoolResult r = workload::run_mt_debit_credit(lab.engine(), bank, mo);
  const sim::SimDuration delta = lab.cluster().clock().now() - attach;
  lab.cluster().set_ledger(nullptr);
  ASSERT_EQ(r.commits, 400u);
  const core::PerseasStats stats = db.stats();

  const std::vector<CostEntry> rows = ledger.entries();
  std::set<std::tuple<std::uint64_t, std::string_view, std::string_view, std::string_view>> keys;
  std::set<std::uint64_t> txns;
  for (const CostEntry& e : rows) {
    EXPECT_TRUE(keys.emplace(e.key.txn, e.key.phase, e.key.layer, e.key.channel).second)
        << "txn " << e.key.txn << " phase " << e.key.phase << " has two rows";
    if (e.key.txn != 0) txns.insert(e.key.txn);
  }
  EXPECT_EQ(txns.size(), 400u) << "every committed transaction has rows";
  EXPECT_EQ(ledger.total_ns(), delta) << "conservation across the merged shards";

  const auto phase_ns = [&rows](std::string_view phase) {
    sim::SimDuration ns = 0;
    for (const CostEntry& e : rows) {
      if (e.key.phase == phase) ns += e.ns;
    }
    return ns;
  };
  EXPECT_EQ(stats.time_local_undo - before.time_local_undo, phase_ns("local_undo"));
  EXPECT_EQ(stats.time_remote_undo - before.time_remote_undo, phase_ns("remote_undo"));
  EXPECT_EQ(stats.time_validate - before.time_validate, phase_ns("validate"));
  EXPECT_EQ(stats.time_propagation - before.time_propagation, phase_ns("propagate"));
  EXPECT_EQ(stats.time_commit_flags - before.time_commit_flags,
            phase_ns("flag_set") + phase_ns("flag_clear"));
  EXPECT_EQ(stats.time_cc_wait - before.time_cc_wait, phase_ns("cc_wait"));
  EXPECT_GT(phase_ns("propagate"), 0);
}

// A thread finds its shard through a one-entry cache keyed by the ledger's
// serial number, and a scope keeps its row.  Charging two ledgers
// alternately misses the thread's cache on every switch and must find the
// thread's existing shard each time; a ledger built in a dead one's
// storage must start empty, inheriting neither the thread's cached shard
// nor an open scope's cached row.
TEST(CostLedgerThreads, ThreadCacheFollowsTheLedger) {
  sim::SimClock clock_a;
  sim::SimClock clock_b;
  std::optional<CostLedger> a(std::in_place);
  CostLedger b;
  clock_a.set_observer(&*a);
  clock_b.set_observer(&b);
  constexpr int kCharges = 1'000;
  {
    const ScopedCost in_a(CostSinks{&*a, nullptr, 0, &clock_a}, 1, "a", "test", "-");
    const ScopedCost in_b(CostSinks{&b, nullptr, 0, &clock_b}, 1, "b", "test", "-");
    for (int i = 0; i < kCharges; ++i) {
      clock_a.advance(1);
      clock_b.advance(2);
      a->add_bytes(3);
      b.add_bytes(5);
    }
  }
  clock_b.advance(7);  // outside any scope: b's root row

  const auto expect_rows = [](const CostLedger& ledger, std::string_view phase,
                              sim::SimDuration ns, std::uint64_t bytes) {
    const std::vector<CostEntry> rows = ledger.entries();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].key.phase, phase);
    EXPECT_EQ(rows[0].ns, ns);
    EXPECT_EQ(rows[0].bytes, bytes);
  };
  expect_rows(*a, "a", kCharges * 1, kCharges * 3u);
  EXPECT_EQ(a->entries().size(), 1u);
  expect_rows(b, "b", kCharges * 2, kCharges * 5u);
  EXPECT_EQ(b.entries().size(), 2u);
  EXPECT_EQ(b.total_ns(), clock_b.now());

  // Rebuild `a` in place under an open scope: the thread's cache and the
  // scope's cached row still point into the dead ledger's shard, and the
  // new ledger sits at the same address.
  {
    CostLedger* const old_address = &*a;
    const ScopedCost held(CostSinks{old_address, nullptr, 0, &clock_a}, 2, "a2", "test", "-");
    clock_a.advance(13);  // books to the old ledger
    a.emplace();
    ASSERT_EQ(&*a, old_address);
    clock_a.set_observer(&*a);
    clock_a.advance(17);  // the scope's key, in the new ledger
  }
  clock_a.advance(11);
  const std::vector<CostEntry> rows = a->entries();
  ASSERT_EQ(rows.size(), 2u) << "the new ledger holds only its own charges";
  EXPECT_EQ(rows[0].key.phase, "a2");
  EXPECT_EQ(rows[0].ns, 17);
  EXPECT_EQ(rows[1].key.phase, "unattributed");
  EXPECT_EQ(rows[1].ns, 11);
  EXPECT_EQ(a->total_ns(), 17 + 11);
  EXPECT_EQ(a->total_bytes(), 0u);
  EXPECT_EQ(b.total_ns(), clock_b.now()) << "b is untouched";
}

// PerseasStats' phase times are read from the phase's own scope, so each
// equals the sum of that phase's ledger rows exactly — under every
// concurrency-control policy, including wait-die's charged waits.
class PhaseStatsTest : public CostLedgerTest,
                       public ::testing::WithParamInterface<core::CcPolicyKind> {};

TEST_P(PhaseStatsTest, EachPhaseTimeEqualsItsLedgerRows) {
  core::PerseasConfig config;
  config.cc_policy = GetParam();
  config.cc_wait = sim::us(7.0);
  auto& db = make_db(config);
  attach();
  auto rec = db.record(0);
  for (int round = 0; round < 3; ++round) {
    auto older = db.begin_transaction();
    auto younger = db.begin_transaction();
    younger.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), round, 64);
    try {
      // fww: loses at once; wait-die: waits, then loses; validate: declares.
      older.set_range(rec, 256, 8);
      older.set_range(rec, 16, 8);
      std::memset(rec.bytes().data() + 256, round, 8);
    } catch (const core::TxnConflict&) {
    }
    older.read_range(rec, 512, 16);
    younger.commit();
    older.commit();
  }
  expect_conservation();

  const auto phase_ns = [this](std::string_view phase) {
    sim::SimDuration ns = 0;
    for (const auto& e : ledger_.entries()) {
      if (e.key.phase == phase) ns += e.ns;
    }
    return ns;
  };
  const core::PerseasStats& s = db.stats();
  EXPECT_EQ(s.time_local_undo, phase_ns("local_undo"));
  EXPECT_EQ(s.time_remote_undo, phase_ns("remote_undo"));
  EXPECT_EQ(s.time_validate, phase_ns("validate"));
  EXPECT_EQ(s.time_propagation, phase_ns("propagate"));
  EXPECT_EQ(s.time_commit_flags, phase_ns("flag_set") + phase_ns("flag_clear"));
  EXPECT_EQ(s.time_cc_wait, phase_ns("cc_wait"));
  EXPECT_GT(s.time_propagation, 0);
  EXPECT_GT(s.time_commit_flags, 0);
  if (GetParam() == core::CcPolicyKind::kWaitDie) {
    EXPECT_EQ(s.time_cc_wait, 3 * sim::us(7.0)) << "one charged wait per round";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PhaseStatsTest,
                         ::testing::Values(core::CcPolicyKind::kFirstWriterWins,
                                           core::CcPolicyKind::kWaitDie,
                                           core::CcPolicyKind::kValidateAtCommit));

TEST_F(CostLedgerTest, DetachStopsAttribution) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), 1, 64);
    txn.commit();
  }
  const auto attributed = ledger_.total_ns();
  const auto detach_delta = cluster_.clock().now() - attach_time_;
  EXPECT_EQ(attributed, detach_delta);
  cluster_.set_ledger(nullptr);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), 2, 64);
    txn.commit();
  }
  EXPECT_EQ(ledger_.total_ns(), attributed) << "detached ledger must not move";
}

}  // namespace
}  // namespace perseas::obs

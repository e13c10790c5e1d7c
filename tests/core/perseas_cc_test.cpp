// End-to-end concurrency-control policy tests through the public Perseas
// surface: wait-die's age ordering (charged waits for the old, wounds for
// the young), validate-at-commit's stale-reader aborts, the PERSEAS_CC
// environment override, read_range's usage contract, and the guarantee
// that conflict-free work costs exactly the same simulated time under
// every policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>

#include "core/perseas.hpp"

namespace perseas::core {
namespace {

constexpr std::uint64_t kRecSize = 512;

class PerseasCcTest : public ::testing::Test {
 protected:
  PerseasCcTest() : cluster_(sim::HardwareProfile::forth_1997(), 2), server_(cluster_, 1) {}

  /// Perseas is immovable; the fixture hosts the instance and hands out a
  /// reference (one live database per test).
  Perseas& make_db(PerseasConfig config = {}) {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_}, config);
    rec_ = db_->persistent_malloc(kRecSize);
    db_->init_remote_db();
    return *db_;
  }

  static PerseasConfig with_policy(CcPolicyKind kind) {
    PerseasConfig config;
    config.cc_policy = kind;
    return config;
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  std::optional<Perseas> db_;
  RecordHandle rec_;
};

// ---------------------------------------------------------------------------
// Wait-die

TEST_F(PerseasCcTest, WaitDieWoundsTheYoungerRequester) {
  auto& db = make_db(with_policy(CcPolicyKind::kWaitDie));
  auto a = db.begin_transaction();  // older: smaller begin-order timestamp
  auto b = db.begin_transaction();  // younger
  a.set_range(rec_, 0, 64);

  try {
    b.set_range(rec_, 32, 16);  // younger hits the older holder: dies
    FAIL() << "expected TxnConflict";
  } catch (const TxnConflict& e) {
    EXPECT_EQ(e.txn(), b.id());
    EXPECT_EQ(e.holder(), a.id());
    EXPECT_EQ(e.reason(), AbortReason::kWounded);
  }
  EXPECT_EQ(db.stats().txns_conflicted, 1u);
  EXPECT_EQ(db.stats().txns_wounded, 1u);
  EXPECT_EQ(db.stats().cc_waits, 0u);  // dying is immediate — no charged wait

  b.abort();
  std::memset(rec_.bytes().data(), 0x11, 64);
  a.commit();
  EXPECT_EQ(db.stats().txns_committed, 1u);
}

TEST_F(PerseasCcTest, WaitDieChargesTheOlderRequesterAWaitBeforeItsRetryThrow) {
  PerseasConfig config = with_policy(CcPolicyKind::kWaitDie);
  config.cc_wait = sim::us(7.0);
  auto& db = make_db(config);
  auto a = db.begin_transaction();  // older
  auto b = db.begin_transaction();  // younger
  b.set_range(rec_, 0, 64);

  const sim::SimTime before = cluster_.clock().now();
  try {
    a.set_range(rec_, 16, 8);  // older hits the younger holder: waits, then retries
    FAIL() << "expected TxnConflict";
  } catch (const TxnConflict& e) {
    EXPECT_EQ(e.txn(), a.id());
    EXPECT_EQ(e.holder(), b.id());
    EXPECT_EQ(e.reason(), AbortReason::kConflict);  // a wait, not a wound
  }
  // The rejection charged exactly one configured wait slice on the
  // simulated clock before the throw.
  EXPECT_EQ(db.stats().cc_waits, 1u);
  EXPECT_EQ(db.stats().time_cc_wait, sim::us(7.0));
  EXPECT_GE(cluster_.clock().now() - before, sim::us(7.0));
  EXPECT_EQ(db.stats().txns_wounded, 0u);

  // The older transaction survived the rejection; once the younger holder
  // commits, the retry goes through.
  EXPECT_TRUE(a.active());
  std::memset(rec_.bytes().data(), 0x22, 64);
  b.commit();
  a.set_range(rec_, 16, 8);
  std::memset(rec_.bytes().data() + 16, 0x33, 8);
  a.commit();
  EXPECT_EQ(db.stats().txns_committed, 2u);
}

// ---------------------------------------------------------------------------
// Validate-at-commit

TEST_F(PerseasCcTest, ValidateAbortsAReaderWhoseSnapshotWentStale) {
  auto& db = make_db(with_policy(CcPolicyKind::kValidateAtCommit));
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 64);  // a observes bytes b is about to overwrite

  auto b = db.begin_transaction();
  b.set_range(rec_, 0, 64);
  std::memset(rec_.bytes().data(), 0x44, 64);
  b.commit();

  a.set_range(rec_, 128, 16);  // disjoint write: the read is what's stale
  std::memset(rec_.bytes().data() + 128, 0x55, 16);
  try {
    a.commit();
    FAIL() << "expected TxnConflict";
  } catch (const TxnConflict& e) {
    EXPECT_EQ(e.txn(), a.id());
    EXPECT_EQ(e.holder(), b.id());
    EXPECT_EQ(e.reason(), AbortReason::kValidationFailed);
  }
  EXPECT_EQ(db.stats().txns_validation_failed, 1u);
  EXPECT_EQ(db.stats().txns_conflicted, 1u);

  // Validation failed before any propagation: the transaction is still
  // active and the abort rolls its local write back.
  EXPECT_TRUE(a.active());
  a.abort();
  EXPECT_NE(rec_.bytes()[128], std::byte{0x55});

  // The fresh retry re-reads current state and commits.
  auto retry = db.begin_transaction();
  retry.read_range(rec_, 0, 64);
  retry.set_range(rec_, 128, 16);
  std::memset(rec_.bytes().data() + 128, 0x66, 16);
  retry.commit();
  EXPECT_EQ(db.stats().txns_committed, 2u);
}

TEST_F(PerseasCcTest, ValidationFailureLeavesTheWriteSetValidatorTracking) {
  PerseasConfig config = with_policy(CcPolicyKind::kValidateAtCommit);
  config.validate_writes = true;
  auto& db = make_db(config);
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 64);
  a.set_range(rec_, 128, 16);
  std::memset(rec_.bytes().data() + 128, 0x55, 16);

  auto b = db.begin_transaction();
  b.set_range(rec_, 0, 64);
  std::memset(rec_.bytes().data(), 0x44, 64);
  b.commit();
  EXPECT_THROW(a.commit(), TxnConflict);

  // c snapshots a's write, which a's rollback then undoes: the validator
  // must still count [128, 144) as a's range, or c's commit reports it as
  // c's own uncovered write.
  auto c = db.begin_transaction();
  a.abort();
  EXPECT_NO_THROW(c.commit());
  EXPECT_EQ(db.txn_observer()->stats().aborts_checked, 1u);
}

TEST_F(PerseasCcTest, ValidateAbortsAStaleReadOnlyTransactionToo) {
  auto& db = make_db(with_policy(CcPolicyKind::kValidateAtCommit));
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 16);

  auto b = db.begin_transaction();
  b.set_range(rec_, 8, 8);
  std::memset(rec_.bytes().data() + 8, 0x77, 8);
  b.commit();

  // Read-only transactions validate before the no-propagation early
  // return: a serializable point in time for the reads must still exist.
  EXPECT_THROW(a.commit(), TxnConflict);
  EXPECT_EQ(db.stats().txns_validation_failed, 1u);
  a.abort();
}

TEST_F(PerseasCcTest, ValidatePassesWhenReadsAndWritesAreDisjoint) {
  auto& db = make_db(with_policy(CcPolicyKind::kValidateAtCommit));
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 32);

  auto b = db.begin_transaction();
  b.set_range(rec_, 256, 32);  // far from a's read set
  std::memset(rec_.bytes().data() + 256, 0x12, 32);
  b.commit();

  a.set_range(rec_, 64, 16);
  std::memset(rec_.bytes().data() + 64, 0x34, 16);
  a.commit();  // backward validation finds no overlap
  EXPECT_EQ(db.stats().txns_committed, 2u);
  EXPECT_EQ(db.stats().txns_validation_failed, 0u);
}

TEST_F(PerseasCcTest, FirstWriterWinsIgnoresReadSets) {
  auto& db = make_db();  // default policy: fww
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 64);

  auto b = db.begin_transaction();
  b.set_range(rec_, 0, 64);
  std::memset(rec_.bytes().data(), 0x56, 64);
  b.commit();

  // Under fww the read set is bookkeeping only — the stale read commits.
  a.commit();
  EXPECT_EQ(db.stats().txns_committed, 2u);
  EXPECT_EQ(db.stats().txns_conflicted, 0u);
  EXPECT_EQ(db.stats().read_ranges, 1u);
}

// ---------------------------------------------------------------------------
// read_range usage contract

TEST_F(PerseasCcTest, ReadRangeEnforcesTheDeclareContract) {
  auto& db = make_db();
  auto t = db.begin_transaction();
  EXPECT_THROW(t.read_range(9999, 0, 8), UsageError);          // no such record
  EXPECT_THROW(t.read_range(rec_, kRecSize - 4, 8), UsageError);  // past the end
  t.read_range(rec_, 0, 0);  // empty read observes nothing; accepted and ignored
  t.read_range(rec_, 0, 8);
  EXPECT_EQ(db.stats().read_ranges, 1u);  // only the non-empty read counts
  t.commit();
  EXPECT_THROW(t.read_range(rec_, 0, 8), UsageError);  // transaction is closed
}

// ---------------------------------------------------------------------------
// Policy selection

TEST_F(PerseasCcTest, EnvironmentOverrideSelectsThePolicy) {
  ASSERT_EQ(setenv("PERSEAS_CC", "wait-die", 1), 0);
  auto& db = make_db();  // default config asks for fww; the env wins
  unsetenv("PERSEAS_CC");

  auto a = db.begin_transaction();
  auto b = db.begin_transaction();
  a.set_range(rec_, 0, 16);
  try {
    b.set_range(rec_, 0, 16);
    FAIL() << "expected TxnConflict";
  } catch (const TxnConflict& e) {
    EXPECT_EQ(e.reason(), AbortReason::kWounded);  // only wait-die wounds
  }
  b.abort();
  a.abort();
}

TEST_F(PerseasCcTest, UnknownEnvironmentPolicyIsAUsageError) {
  ASSERT_EQ(setenv("PERSEAS_CC", "two-phase-hope", 1), 0);
  EXPECT_THROW(make_db(), UsageError);
  unsetenv("PERSEAS_CC");
}

// ---------------------------------------------------------------------------
// Cost neutrality

TEST_F(PerseasCcTest, ConflictFreeWorkCostsTheSameUnderEveryPolicy) {
  // The policies only charge simulated time when they reject or wait; a
  // conflict-free history must cost bit-identically under all three.  This
  // is the invariant that keeps the default-policy benchmark goldens
  // stable after the CcPolicy extraction.
  sim::SimDuration deltas[3] = {};
  const CcPolicyKind kinds[3] = {CcPolicyKind::kFirstWriterWins, CcPolicyKind::kWaitDie,
                                 CcPolicyKind::kValidateAtCommit};
  for (int i = 0; i < 3; ++i) {
    // A fresh cluster per policy: a mirror server hosts one database for
    // its lifetime, and identical clusters make the deltas comparable from
    // simulated time zero.
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    Perseas db(cluster, 0, std::vector<netram::RemoteMemoryServer*>{&server},
               with_policy(kinds[i]));
    RecordHandle rec = db.persistent_malloc(kRecSize);
    db.init_remote_db();
    const sim::SimTime before = cluster.clock().now();
    for (int round = 0; round < 4; ++round) {
      auto t = db.begin_transaction();
      t.read_range(rec, 256, 32);
      t.set_range(rec, static_cast<std::uint64_t>(round) * 64, 64);
      std::memset(rec.bytes().data() + round * 64, round + 1, 64);
      t.commit();
    }
    EXPECT_EQ(db.stats().txns_committed, 4u);
    EXPECT_EQ(db.stats().txns_conflicted, 0u);
    deltas[i] = cluster.clock().now() - before;
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0], deltas[2]);
}

}  // namespace
}  // namespace perseas::core

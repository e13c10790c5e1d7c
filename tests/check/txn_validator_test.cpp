// The write-set validator (check::TxnValidator): uncovered writes are
// reported at commit with record/offset/length, covered writes pass, abort
// restoration is verified against the begin snapshot, overlapping and
// duplicate set_range declarations merge into one interval, remote undo
// entries are byte-checked after every push, and — crucially — the whole
// machinery costs nothing when PerseasConfig::validate_writes is off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "check/txn_validator.hpp"
#include "core/perseas.hpp"

namespace perseas::check {
namespace {

class TxnValidatorTest : public ::testing::Test {
 protected:
  TxnValidatorTest() : cluster_(sim::HardwareProfile::forth_1997(), 2), server_(cluster_, 1) {}

  core::Perseas make_db(bool validate = true) {
    core::PerseasConfig config;
    config.validate_writes = validate;
    return core::Perseas(cluster_, 0, {&server_}, config);
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
};

TEST_F(TxnValidatorTest, UncoveredWriteReportedAtCommitWithLocation) {
  auto db = make_db();
  auto rec0 = db.persistent_malloc(64);
  auto rec1 = db.persistent_malloc(64);
  db.init_remote_db();

  auto txn = db.begin_transaction();
  txn.set_range(rec0, 0, 8);
  std::memset(rec0.bytes().data(), 0x11, 8);        // covered
  std::memset(rec1.bytes().data() + 10, 0x22, 3);   // NOT covered
  try {
    txn.commit();
    FAIL() << "commit accepted an uncovered write";
  } catch (const CoverageError& e) {
    EXPECT_EQ(e.record(), rec1.index());
    EXPECT_EQ(e.offset(), 10u);
    EXPECT_EQ(e.length(), 3u);
  }
  // The veto fired before any propagation: the transaction is still active
  // and the mirror image untouched.
  EXPECT_TRUE(txn.active());
  EXPECT_TRUE(db.in_transaction());
  EXPECT_EQ(db.validator_stats().uncovered_writes, 1u);

  // Undo the rogue write by hand, then abort cleanly.
  std::memset(rec1.bytes().data() + 10, 0, 3);
  txn.abort();
  EXPECT_EQ(rec0.bytes()[0], std::byte{0});
}

TEST_F(TxnValidatorTest, CoveredWritesCommitCleanly) {
  auto db = make_db();
  auto rec = db.persistent_malloc(256);
  db.init_remote_db();

  for (int t = 0; t < 5; ++t) {
    auto txn = db.begin_transaction();
    txn.set_range(rec, static_cast<std::uint64_t>(t) * 16, 16);
    std::memset(rec.bytes().data() + t * 16, t + 1, 16);
    EXPECT_NO_THROW(txn.commit());
  }
  const auto stats = db.validator_stats();
  EXPECT_EQ(stats.commits_checked, 5u);
  EXPECT_EQ(stats.uncovered_writes, 0u);
  EXPECT_EQ(db.stats().txns_committed, 5u);
}

TEST_F(TxnValidatorTest, OverlappingAndDuplicateRangesMerge) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();
  auto* validator = db.validator();
  ASSERT_NE(validator, nullptr);

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  txn.set_range(rec, 4, 8);    // overlaps [0,8)
  txn.set_range(rec, 4, 8);    // exact duplicate
  txn.set_range(rec, 12, 4);   // adjacent to [0,12)
  txn.set_range(rec, 32, 8);   // disjoint
  const auto ranges = validator->declared_ranges(rec.index());
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (core::ByteRange{0, 16}));
  EXPECT_EQ(ranges[1], (core::ByteRange{32, 8}));

  // A write spanning the whole merged interval is covered even though no
  // single set_range call declared it.
  std::memset(rec.bytes().data(), 0x7F, 16);
  std::memset(rec.bytes().data() + 32, 0x7F, 8);
  EXPECT_NO_THROW(txn.commit());
}

TEST_F(TxnValidatorTest, WriteStraddlingUnmergedRangesIsUncovered) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 4);
  txn.set_range(rec, 8, 4);  // gap at [4, 8)
  std::memset(rec.bytes().data(), 0x33, 12);
  try {
    txn.commit();
    FAIL() << "write through the [4,8) gap was accepted";
  } catch (const CoverageError& e) {
    EXPECT_EQ(e.record(), rec.index());
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_EQ(e.length(), 4u);
  }
  std::memset(rec.bytes().data(), 0, 12);
  txn.abort();
}

TEST_F(TxnValidatorTest, AbortRestorationIsVerified) {
  auto db = make_db();
  auto rec = db.persistent_malloc(128);
  db.init_remote_db();

  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 16, 32);
    std::memset(rec.bytes().data() + 16, 0xAB, 32);
    EXPECT_NO_THROW(txn.abort());
  }
  for (int i = 0; i < 128; ++i) EXPECT_EQ(rec.bytes()[i], std::byte{0}) << i;
  EXPECT_EQ(db.validator_stats().aborts_checked, 1u);
}

TEST_F(TxnValidatorTest, AbortWithUncoveredWriteRaisesSnapshotMismatch) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  rec.bytes()[40] = std::byte{0x5A};  // uncovered: abort cannot restore it
  EXPECT_THROW(txn.abort(), SnapshotMismatchError);
  // The abort itself completed (the declared ranges were restored); only
  // the verification failed.
  EXPECT_FALSE(db.in_transaction());
  EXPECT_EQ(rec.bytes()[40], std::byte{0x5A});
}

TEST_F(TxnValidatorTest, UnusedDeclaredRangeWarns) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();
  auto* validator = db.validator();
  ASSERT_NE(validator, nullptr);

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  txn.set_range(rec, 32, 8);  // declared, never written: wasted undo push
  std::memset(rec.bytes().data(), 0x44, 8);
  EXPECT_NO_THROW(txn.commit());
  EXPECT_EQ(db.validator_stats().unused_ranges, 1u);
  ASSERT_EQ(validator->warnings().size(), 1u);
  EXPECT_NE(validator->warnings()[0].find("[32, 40)"), std::string::npos);
}

TEST_F(TxnValidatorTest, RemoteUndoEntriesAreCrossChecked) {
  auto db = make_db();  // eager_remote_undo defaults to true
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  txn.set_range(rec, 16, 8);
  std::memset(rec.bytes().data(), 1, 8);
  txn.commit();
  // One push per set_range per mirror (one mirror here), each byte-compared
  // against the mirror's memory and CRC-revalidated.
  EXPECT_EQ(db.validator_stats().undo_crosschecks, 2u);
}

TEST_F(TxnValidatorTest, LazyModeValidatesToo) {
  core::PerseasConfig config;
  config.validate_writes = true;
  config.eager_remote_undo = false;
  core::Perseas db(cluster_, 0, {&server_}, config);
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  std::memset(rec.bytes().data(), 0x66, 8);
  rec.bytes()[20] = std::byte{0x66};  // uncovered
  EXPECT_THROW(txn.commit(), CoverageError);
  // Lazy mode pushes undo at commit; the veto fired first, so nothing was
  // pushed and no cross-checks ran.
  EXPECT_EQ(db.validator_stats().undo_crosschecks, 0u);
  rec.bytes()[20] = std::byte{0};
  txn.abort();
}

TEST_F(TxnValidatorTest, ReadOnlyTransactionPassesValidation) {
  auto db = make_db();
  (void)db.persistent_malloc(64);
  db.init_remote_db();
  auto txn = db.begin_transaction();
  EXPECT_NO_THROW(txn.commit());
  EXPECT_EQ(db.validator_stats().commits_checked, 1u);
}

TEST_F(TxnValidatorTest, ValidatorSurvivesRecovery) {
  // A recovered instance inherits validate_writes from its config and
  // polices the recovered records the same way.
  {
    auto db = make_db();
    auto rec = db.persistent_malloc(64);
    db.init_remote_db();
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 8);
    std::memset(rec.bytes().data(), 0x77, 8);
    txn.commit();
    // Primary dies without shutdown; the mirror keeps the database.
    cluster_.crash_node(0, sim::FailureKind::kPowerOutage);
    cluster_.restart_node(0);
  }
  core::PerseasConfig config;
  config.validate_writes = true;
  auto db = core::Perseas::recover(cluster_, 0, {&server_}, config);
  EXPECT_TRUE(db.validating());
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  rec.bytes()[5] = std::byte{0x01};  // uncovered
  EXPECT_THROW(txn.commit(), CoverageError);
  rec.bytes()[5] = std::byte{0x77};
  txn.abort();
}

TEST_F(TxnValidatorTest, ZeroOverheadWhenOff) {
  if (std::getenv("PERSEAS_VALIDATE_WRITES") != nullptr) {
    GTEST_SKIP() << "PERSEAS_VALIDATE_WRITES forces the validator on; "
                    "the off-path cannot be exercised in this run";
  }
  auto db = make_db(/*validate=*/false);
  auto rec = db.persistent_malloc(4096);
  db.init_remote_db();

  EXPECT_FALSE(db.validating());
  EXPECT_EQ(db.validator(), nullptr);

  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 64);
  std::memset(rec.bytes().data(), 0x12, 64);
  rec.bytes()[100] = std::byte{0x13};  // uncovered — and nobody checks
  txn.commit();

  // No validator: no snapshots, no tracking, no cross-checks — every
  // validator counter stays zero.
  const auto stats = db.validator_stats();
  EXPECT_EQ(stats.txns_observed, 0u);
  EXPECT_EQ(stats.snapshots_taken, 0u);
  EXPECT_EQ(stats.snapshot_bytes, 0u);
  EXPECT_EQ(stats.ranges_tracked, 0u);
  EXPECT_EQ(stats.commits_checked, 0u);
  EXPECT_EQ(stats.undo_crosschecks, 0u);
}

TEST_F(TxnValidatorTest, ValidationChargesNoSimulatedTimeOrTraffic) {
  // Two identical workloads, validation on and off, must produce the same
  // simulated clock reading and network counters: the validator is
  // invisible to the cost model.
  auto run = [](bool validate) {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    core::PerseasConfig config;
    config.validate_writes = validate;
    core::Perseas db(cluster, 0, {&server}, config);
    auto rec = db.persistent_malloc(256);
    db.init_remote_db();
    for (int t = 0; t < 10; ++t) {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 128);
      std::memset(rec.bytes().data(), t, 128);
      if (t % 3 == 0) {
        txn.abort();
      } else {
        txn.commit();
      }
    }
    return std::pair{cluster.clock().now(), cluster.stats().remote_write_bytes};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(TxnValidatorTest, SnapshotsResetBetweenTransactions) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();

  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 8);
    std::memset(rec.bytes().data(), 0x21, 8);
    txn.commit();
  }
  // The committed bytes are the new baseline: leaving them in place is not
  // a "modification" for the next transaction.
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 8, 8);
    std::memset(rec.bytes().data() + 8, 0x42, 8);
    EXPECT_NO_THROW(txn.commit());
  }
  EXPECT_EQ(db.validator_stats().snapshots_taken, 2u);
  EXPECT_EQ(db.validator_stats().snapshot_bytes, 128u);
}

// Direct unit coverage of the alignment predicate backing
// RecordHandle::as/array (records are 64-byte aligned by the arena, so the
// reject path cannot be provoked deterministically through the API).
TEST(AlignmentGuardTest, PredicateMatchesPointerAlignment) {
  alignas(64) static std::byte buf[128];
  EXPECT_TRUE(core::is_aligned_for(buf, 64));
  EXPECT_TRUE(core::is_aligned_for(buf + 8, 8));
  EXPECT_FALSE(core::is_aligned_for(buf + 4, 8));
  EXPECT_FALSE(core::is_aligned_for(buf + 1, 2));
  EXPECT_TRUE(core::is_aligned_for(buf + 1, 1));
}

TEST_F(TxnValidatorTest, TypedViewsStillWorkWithGuards) {
  auto db = make_db();
  auto rec = db.persistent_malloc(64);
  db.init_remote_db();
  EXPECT_NO_THROW((void)rec.as<std::uint64_t>());
  EXPECT_NO_THROW((void)rec.array<std::uint32_t>());
  EXPECT_EQ(rec.array<std::uint32_t>().size(), 16u);
  struct TooBig {
    char payload[128];
  };
  EXPECT_THROW((void)rec.as<TooBig>(), core::UsageError);
}

}  // namespace
}  // namespace perseas::check

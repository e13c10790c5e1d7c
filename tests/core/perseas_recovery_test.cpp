// Recovery tests: crash the primary at *every* instrumented point of the
// protocol and verify the database recovers to a transaction-atomic state,
// exactly as paper section 3 describes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "core/failure_points.hpp"
#include "core/perseas.hpp"

namespace perseas::core {
namespace {

constexpr std::uint64_t kRecSize = 256;

class PerseasRecoveryTest : public ::testing::Test {
 protected:
  PerseasRecoveryTest() : cluster_(sim::HardwareProfile::forth_1997(), 3), server_(cluster_, 1) {}

  /// Builds a database whose record holds "COMMITTED" (the stable state).
  /// Perseas is immovable, so the fixture hosts the instance and hands out
  /// a reference (one live database per test).
  Perseas& make_committed_db(PerseasConfig config = {}) {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_}, config);
    auto rec = db_->persistent_malloc(kRecSize);
    db_->init_remote_db();
    auto txn = db_->begin_transaction();
    txn.set_range(rec, 0, 16);
    std::memcpy(rec.bytes().data(), "COMMITTED.......", 16);
    txn.commit();
    return *db_;
  }

  /// Arms a software crash of node 0 at `point`, runs a transaction that
  /// tries to overwrite the state with "DIRTY", and returns whether the
  /// crash fired.
  void run_doomed_txn(Perseas& db, points::PointId point) {
    cluster_.failures().arm(point, [this] {
      cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
      throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
    });
    auto rec = db.record(0);
    auto txn = db.begin_transaction();
    EXPECT_THROW(
        {
          txn.set_range(rec, 0, 16);
          std::memcpy(rec.bytes().data(), "DIRTY...........", 16);
          txn.set_range(rec, 100, 16);
          std::memcpy(rec.bytes().data() + 100, "DIRTY...........", 16);
          txn.commit();
        },
        sim::NodeCrashed);
  }

  std::string recovered_prefix(Perseas& db) {
    auto rec = db.record(0);
    return {reinterpret_cast<const char*>(rec.bytes().data()), 9};
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  std::optional<Perseas> db_;
};

TEST_F(PerseasRecoveryTest, RecoverIdleDatabase) {
  (void)make_committed_db();
  cluster_.crash_node(0, sim::FailureKind::kPowerOutage);
  cluster_.restore_power_supply(cluster_.node(0).power_supply());
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered.record_count(), 1u);
  EXPECT_EQ(recovered.record(0).size(), kRecSize);
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
}

TEST_F(PerseasRecoveryTest, RecoverOntoADifferentWorkstation) {
  // Paper: "the database may be reconstructed quickly in any workstation of
  // the network ... even if the crashed node remains out-of-order".
  (void)make_committed_db();
  cluster_.crash_node(0, sim::FailureKind::kHardwareFault);  // stays down
  auto recovered = Perseas::recover(cluster_, 2, {&server_});
  EXPECT_EQ(recovered.local_node(), 2u);
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
}

// The exhaustive crash-point sweep: at every instrumented protocol point,
// a crash must recover to the pre-transaction state — except after
// commit.done, where the transaction had completed.
class CrashPointSweep : public PerseasRecoveryTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(CrashPointSweep, RecoversToAtomicState) {
  const points::PointId point = points::PointId::find(GetParam()).value();
  auto& db = make_committed_db();
  run_doomed_txn(db, point);
  ASSERT_TRUE(cluster_.node(0).crashed());
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  if (point == points::PointId("perseas.commit.done")) {
    EXPECT_EQ(recovered_prefix(recovered), "DIRTY....");
  } else {
    EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
    // The second range must be rolled back too.
    EXPECT_EQ(recovered.record(0).bytes()[100], std::byte{0});
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocolPoints, CrashPointSweep,
                         ::testing::Values("perseas.set_range.after_local_undo",
                                           "perseas.set_range.after_remote_undo",
                                           "perseas.commit.after_flag_set",
                                           "perseas.commit.after_range_copy",
                                           "perseas.commit.before_flag_clear",
                                           "perseas.commit.done"));

// Double crash: the replacement primary dies *inside recovery itself*, at
// every instrumented recovery point.  Recovery only reads the mirror until
// its single flag-clear store, so a half-finished recovery must leave the
// mirror exactly as recoverable as before — the second attempt yields the
// same atomic state and a fully operational database.
class DoubleCrashSweep : public PerseasRecoveryTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_P(DoubleCrashSweep, SecondRecoveryCompletes) {
  const points::PointId point = points::PointId::find(GetParam()).value();
  auto& db = make_committed_db();
  run_doomed_txn(db, "perseas.commit.after_flag_set");  // die mid-propagation
  cluster_.restart_node(0);
  cluster_.failures().arm(point, [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
  });
  EXPECT_THROW(Perseas::recover(cluster_, 0, {&server_}), sim::NodeCrashed);

  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
  EXPECT_EQ(recovered.record(0).bytes()[100], std::byte{0});

  auto rec = recovered.record(0);
  auto txn = recovered.begin_transaction();
  txn.set_range(rec, 0, 16);
  std::memcpy(rec.bytes().data(), "AFTERDOUBLE.....", 16);
  txn.commit();
  EXPECT_EQ(recovered_prefix(recovered), "AFTERDOUB");
}

INSTANTIATE_TEST_SUITE_P(
    AllRecoveryPoints, DoubleCrashSweep,
    ::testing::Values("perseas.recover.connected", "perseas.recover.after_meta",
                      "perseas.recover.after_undo_scan", "perseas.recover.after_rollback",
                      "perseas.recover.after_flag_clear", "perseas.recover.after_pull",
                      "perseas.recover.done"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST_F(PerseasRecoveryTest, CrashBetweenRangeCopiesRollsBackPartialPropagation) {
  auto& db = make_committed_db();
  // Fire on the SECOND range copy of the commit: the first range has
  // already reached the mirror's database image.
  cluster_.failures().arm("perseas.commit.after_range_copy", 1, [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
  });
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  EXPECT_THROW(
      {
        txn.set_range(rec, 0, 16);
        std::memcpy(rec.bytes().data(), "DIRTY...........", 16);
        txn.set_range(rec, 100, 16);
        std::memcpy(rec.bytes().data() + 100, "DIRTY...........", 16);
        txn.commit();
      },
      sim::NodeCrashed);

  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
  EXPECT_EQ(recovered.record(0).bytes()[100], std::byte{0});
}

TEST_F(PerseasRecoveryTest, StaleUndoEntriesFromOlderTransactionsAreIgnored) {
  auto& db = make_committed_db();
  auto rec = db.record(0);
  // Transaction X writes a LARGE undo entry, then aborts: its entry stays
  // in the remote undo log beyond what later transactions overwrite.
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 128);
    std::memset(rec.bytes().data(), 0x77, 128);
    txn.abort();
  }
  // Transaction Y (small) crashes mid-propagation: recovery must roll back
  // exactly Y, not replay X's stale before-image over the database.
  run_doomed_txn(db, "perseas.commit.before_flag_clear");
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
}

TEST_F(PerseasRecoveryTest, RecoveryAfterAbortKeepsCommittedState) {
  auto& db = make_committed_db();
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 16);
    std::memset(rec.bytes().data(), 0x11, 16);
    txn.abort();
  }
  cluster_.crash_node(0);
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
}

TEST_F(PerseasRecoveryTest, TransactionIdsStayMonotonicAcrossRecovery) {
  auto& db = make_committed_db();
  run_doomed_txn(db, "perseas.commit.after_flag_set");
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  auto txn = recovered.begin_transaction();
  // The interrupted transaction was id 2; the recovered instance must not
  // reuse ids at or below it, or stale undo entries could be misattributed.
  EXPECT_GE(txn.id(), 3u);
  txn.abort();
}

TEST_F(PerseasRecoveryTest, RecoveredDatabaseIsFullyOperational) {
  auto& db = make_committed_db();
  run_doomed_txn(db, "perseas.set_range.after_remote_undo");
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  auto rec = recovered.record(0);
  {
    auto txn = recovered.begin_transaction();
    txn.set_range(rec, 0, 16);
    std::memcpy(rec.bytes().data(), "AFTERLIFE.......", 16);
    txn.commit();
  }
  // ... and survives a second crash cycle.
  cluster_.crash_node(0);
  cluster_.restart_node(0);
  auto again = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(again), "AFTERLIFE");
}

TEST_F(PerseasRecoveryTest, RecoveryAfterUndoLogGrowth) {
  PerseasConfig config;
  config.undo_capacity = 128;
  auto& db = make_committed_db(config);
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 200);  // forces growth to a new undo generation
    std::memset(rec.bytes().data(), 0x22, 200);
    txn.commit();
  }
  EXPECT_GT(db.stats().undo_growths, 0u);
  cluster_.crash_node(0);
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered.record(0).bytes()[0], std::byte{0x22});
}

TEST_F(PerseasRecoveryTest, CrashRightAfterUndoGrowthIsSafe) {
  // The undo log is re-allocated (new generation) mid-set_range; a crash
  // right after the generation switch must still recover cleanly, because
  // set_range always runs with propagating_txn == 0.
  PerseasConfig config;
  config.undo_capacity = 64;
  auto& db = make_committed_db(config);
  run_doomed_txn(db, "perseas.undo.after_growth");
  ASSERT_TRUE(cluster_.node(0).crashed());
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
}

class RecoveryCrashSweep : public PerseasRecoveryTest,
                           public ::testing::WithParamInterface<const char*> {};

TEST_P(RecoveryCrashSweep, CrashDuringRecoveryIsRetriableElsewhere) {
  // The recovering workstation itself dies mid-recovery; recovery is
  // idempotent, so a second attempt from another workstation succeeds and
  // still produces a transaction-atomic image.
  auto& db = make_committed_db();
  run_doomed_txn(db, "perseas.commit.after_range_copy");
  ASSERT_TRUE(cluster_.node(0).crashed());

  cluster_.failures().arm(points::PointId::find(GetParam()).value(), [this] {
    cluster_.crash_node(2, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(2, sim::FailureKind::kSoftwareCrash, "recovery-crash");
  });
  EXPECT_THROW(Perseas::recover(cluster_, 2, {&server_}), sim::NodeCrashed);

  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  EXPECT_EQ(recovered_prefix(recovered), "COMMITTED");
  EXPECT_EQ(recovered.record(0).bytes()[100], std::byte{0});
}

INSTANTIATE_TEST_SUITE_P(RecoveryStages, RecoveryCrashSweep,
                         ::testing::Values("perseas.recover.connected",
                                           "perseas.recover.after_rollback"));

TEST_F(PerseasRecoveryTest, NoMirrorAliveFails) {
  (void)make_committed_db();
  cluster_.crash_node(0);
  cluster_.crash_node(1);
  EXPECT_THROW(Perseas::recover(cluster_, 2, {&server_}), RecoveryError);
}

TEST_F(PerseasRecoveryTest, MirrorCrashLosesDatabaseWhenPrimaryAlsoDies) {
  // The paper's admitted limit: data is lost only if ALL mirror nodes crash
  // in the same interval.
  (void)make_committed_db();
  cluster_.crash_node(1);  // mirror gone: exports dropped
  cluster_.crash_node(0);  // then the primary
  cluster_.restart_node(0);
  cluster_.restart_node(1);
  EXPECT_THROW(Perseas::recover(cluster_, 0, {&server_}), RecoveryError);
}

TEST_F(PerseasRecoveryTest, RecoverWithNoServersFails) {
  EXPECT_THROW(Perseas::recover(cluster_, 0, {}), RecoveryError);
}

// The undo log is bytes read back from another machine.  The in-flight
// transaction's first entry is rewritten so offset + size wraps around
// 2^64, with its checksum recomputed: recovery refuses the mirror with
// RecoveryError and notes the anomaly, rather than hand the entry to the
// rollback.
TEST_F(PerseasRecoveryTest, ForgedWrappingUndoEntryIsRefused) {
  auto& db = make_committed_db();
  run_doomed_txn(db, "perseas.commit.after_range_copy");
  ASSERT_TRUE(cluster_.node(0).crashed());

  netram::RemoteMemoryClient vandal(cluster_, 2);
  const auto undo = vandal.sci_connect_segment(server_, undo_key(0));
  ASSERT_TRUE(undo);
  std::vector<std::byte> entry(undo_entry_bytes(16));
  vandal.sci_memcpy_read(*undo, 0, entry);
  UndoEntryHeader e;
  std::memcpy(&e, entry.data(), sizeof e);
  ASSERT_EQ(e.magic, UndoEntryHeader::kMagic);
  ASSERT_EQ(e.size, 16u);
  e.offset = ~std::uint64_t{0} - 7;  // 2^64 - 8
  e.checksum = undo_entry_checksum(e, std::span<const std::byte>(entry).subspan(sizeof e, e.size));
  std::memcpy(entry.data(), &e, sizeof e);
  vandal.sci_memcpy_write(*undo, 0, entry);

  EXPECT_THROW((void)Perseas::recover(cluster_, 2, {&server_}), RecoveryError);
  const auto lines = cluster_.flight().narrative();
  EXPECT_TRUE(std::any_of(lines.begin(), lines.end(), [](const std::string& line) {
    return line.find("fault.anomaly") != std::string::npos;
  }));
}

// Recovery fetches the remote undo log in growing prefixes instead of the
// whole segment.  Each case below must recover exactly what a scan of the
// mirror's whole undo segment (read straight from its memory) yields, while
// reading less than the database plus the undo capacity over SCI.
class UndoPrefixFetchTest : public PerseasRecoveryTest {
 protected:
  static constexpr std::uint64_t kDbBytes = 16 << 10;

  void make_db() {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_});
    (void)db_->persistent_malloc(kDbBytes);
    db_->init_remote_db();
  }

  /// Runs one transaction writing `fill` over each (offset, size) range;
  /// with `doomed`, the primary dies after the first range reaches the
  /// mirror's database image.
  void run_txn(std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> ranges,
               std::byte fill, bool doomed) {
    if (doomed) {
      cluster_.failures().arm("perseas.commit.after_range_copy", [this] {
        cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
        throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
      });
    }
    auto rec = db_->record(0);
    auto txn = db_->begin_transaction();
    for (const auto& [offset, size] : ranges) {
      txn.set_range(rec, offset, size);
      std::memset(rec.bytes().data() + offset, static_cast<int>(fill), size);
    }
    if (doomed) {
      EXPECT_THROW(txn.commit(), sim::NodeCrashed);
    } else {
      txn.commit();
    }
  }

  /// UndoLog::scan over the mirror's whole undo segment, read through
  /// Node::mem: what recovery's prefix fetches must reproduce.
  UndoLog::ScanResult whole_segment_scan() {
    const netram::Node& mirror = cluster_.node(server_.host());
    const auto meta = server_.handle_connect(meta_key()).value();
    std::memcpy(&hdr_, mirror.mem(meta.offset, sizeof hdr_).data(), sizeof hdr_);
    std::vector<std::uint64_t> sizes(hdr_.record_count);
    std::memcpy(sizes.data(), mirror.mem(meta.offset + sizeof hdr_, sizes.size() * 8).data(),
                sizes.size() * 8);
    const auto undo = server_.handle_connect(undo_key(hdr_.undo_gen)).value();
    undo_capacity_ = undo.size;
    const auto log = mirror.mem(undo.offset, undo.size);
    return UndoLog::scan(log, log.size(), hdr_, sizes).value();
  }

  /// Recovers onto the spare and checks the report, the next transaction
  /// id and the SCI bytes read against `whole`.
  Perseas& recover_and_compare(const UndoLog::ScanResult& whole) {
    const std::uint64_t read_before = cluster_.stats().remote_read_bytes;
    recovered_.emplace(Perseas::RecoverTag{}, cluster_, 2,
                       std::vector<netram::RemoteMemoryServer*>{&server_});
    EXPECT_LT(cluster_.stats().remote_read_bytes - read_before, kDbBytes + undo_capacity_);
    const RecoveryReport r = recovered_->recovery_report();
    EXPECT_EQ(r.announced_txn, hdr_.propagating_txn);
    EXPECT_EQ(r.entries_scanned, whole.entries_scanned);
    EXPECT_EQ(r.bytes_scanned, whole.bytes_scanned);
    EXPECT_EQ(r.entries_applied, whole.rollbacks.size());
    EXPECT_EQ(r.entries_applied + r.entries_discarded, whole.entries_scanned);
    EXPECT_EQ(r.per_txn, whole.per_txn);
    auto txn = recovered_->begin_transaction();
    EXPECT_EQ(txn.id(), whole.max_txn + 1);
    txn.abort();
    return *recovered_;
  }

  std::byte byte_at(Perseas& db, std::uint64_t offset) { return db.record(0).bytes()[offset]; }

  MetaHeader hdr_;
  std::uint64_t undo_capacity_ = 0;
  std::optional<Perseas> recovered_;
};

TEST_F(UndoPrefixFetchTest, LivePrefixFollowedByStaleEntriesOfAnEarlierEpoch) {
  make_db();
  // Three same-shape entries, then truncation at the next begin: the doomed
  // transaction's one entry overwrites the first, and the other two stay
  // behind it as valid entries of the earlier epoch.
  run_txn({{0, 64}, {1024, 64}, {2048, 64}}, std::byte{0x11}, false);
  run_txn({{0, 64}}, std::byte{0x22}, true);
  const auto whole = whole_segment_scan();
  ASSERT_EQ(whole.entries_scanned, 3u);
  ASSERT_EQ(whole.rollbacks.size(), 1u);
  ASSERT_EQ(whole.per_txn.size(), 2u);
  auto& recovered = recover_and_compare(whole);
  EXPECT_EQ(byte_at(recovered, 0), std::byte{0x11});
  EXPECT_EQ(byte_at(recovered, 2048), std::byte{0x11});
}

TEST_F(UndoPrefixFetchTest, EntryStraddlingTheFirstFetchBoundary) {
  make_db();
  // Idle crash: nothing is announced, so the first fetch is
  // kUndoFirstFetchBytes and the second entry runs past it.
  run_txn({{0, 64}, {4096, 4000}}, std::byte{0x33}, false);
  cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
  const auto whole = whole_segment_scan();
  ASSERT_EQ(whole.entries_scanned, 2u);
  ASSERT_GT(whole.bytes_scanned, kUndoFirstFetchBytes);
  ASSERT_LT(undo_entry_bytes(64), kUndoFirstFetchBytes);
  auto& recovered = recover_and_compare(whole);
  EXPECT_EQ(byte_at(recovered, 8095), std::byte{0x33});
}

TEST_F(UndoPrefixFetchTest, AnnouncedPrefixLargerThanTheFirstFetch) {
  make_db();
  run_txn({{0, 64}}, std::byte{0x44}, false);
  // The doomed transaction announces two 3,000-byte before-images, so the
  // first fetch must already cover more than kUndoFirstFetchBytes.
  run_txn({{0, 3000}, {8000, 3000}}, std::byte{0x55}, true);
  const auto whole = whole_segment_scan();
  ASSERT_GT(hdr_.propagating_undo_bytes, kUndoFirstFetchBytes);
  ASSERT_EQ(whole.rollbacks.size(), 2u);
  auto& recovered = recover_and_compare(whole);
  EXPECT_EQ(byte_at(recovered, 0), std::byte{0x44});
  EXPECT_EQ(byte_at(recovered, 63), std::byte{0x44});
  EXPECT_EQ(byte_at(recovered, 64), std::byte{0});
  EXPECT_EQ(byte_at(recovered, 8000), std::byte{0});
}

TEST_F(PerseasRecoveryTest, RecoveryCostScalesWithDatabaseSize) {
  (void)make_committed_db();
  cluster_.crash_node(0);
  cluster_.restart_node(0);
  const auto t0 = cluster_.clock().now();
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  const auto small_cost = cluster_.clock().now() - t0;
  // Recovery of a 256-byte database takes well under a second of simulated
  // time — "normal operation can be restarted immediately".
  EXPECT_LT(small_cost, sim::seconds(1.0));
}

}  // namespace
}  // namespace perseas::core

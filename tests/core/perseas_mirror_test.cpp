// Multi-mirror replication, power-supply scenarios, and mirror rebuilds.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "core/perseas.hpp"

namespace perseas::core {
namespace {

class PerseasMirrorTest : public ::testing::Test {
 protected:
  PerseasMirrorTest()
      : cluster_(sim::HardwareProfile::forth_1997(), 4),
        mirror1_(cluster_, 1),
        mirror2_(cluster_, 2) {}

  /// Perseas is immovable, so the fixture hosts the instance and hands out
  /// a reference (one live database per test).
  Perseas& make_db() {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&mirror1_, &mirror2_},
                PerseasConfig{});
    auto rec = db_->persistent_malloc(128);
    db_->init_remote_db();
    auto txn = db_->begin_transaction();
    txn.set_range(rec, 0, 8);
    std::memcpy(rec.bytes().data(), "GOLDEN..", 8);
    txn.commit();
    return *db_;
  }

  std::string prefix(Perseas& db) {
    auto rec = db.record(0);
    return {reinterpret_cast<const char*>(rec.bytes().data()), 6};
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer mirror1_;
  netram::RemoteMemoryServer mirror2_;
  std::optional<Perseas> db_;
};

TEST_F(PerseasMirrorTest, CommitReplicatesToAllMirrors) {
  (void)make_db();
  netram::RemoteMemoryClient peek(cluster_, 3);
  for (auto* server : {&mirror1_, &mirror2_}) {
    const auto seg = peek.sci_connect_segment(*server, db_key(0));
    ASSERT_TRUE(seg);
    std::vector<std::byte> out(8);
    peek.sci_memcpy_read(*seg, 0, out);
    EXPECT_EQ(std::memcmp(out.data(), "GOLDEN..", 8), 0);
  }
}

TEST_F(PerseasMirrorTest, ExtraMirrorCostsProportionalRemoteTraffic) {
  netram::Cluster single_cluster(sim::HardwareProfile::forth_1997(), 2);
  netram::RemoteMemoryServer single_server(single_cluster, 1);
  Perseas one(single_cluster, 0, {&single_server}, {});
  auto rec1 = one.persistent_malloc(128);
  one.init_remote_db();

  auto& two = make_db();
  auto rec2 = two.record(0);

  single_cluster.reset_stats();
  cluster_.reset_stats();
  {
    auto txn = one.begin_transaction();
    txn.set_range(rec1, 0, 8);
    txn.commit();
  }
  {
    auto txn = two.begin_transaction();
    txn.set_range(rec2, 0, 8);
    txn.commit();
  }
  EXPECT_EQ(cluster_.stats().remote_write_bytes, 2 * single_cluster.stats().remote_write_bytes);
}

TEST_F(PerseasMirrorTest, RecoverFromSecondMirrorWhenFirstIsDown) {
  (void)make_db();
  cluster_.crash_node(0);
  cluster_.crash_node(1);  // first mirror also gone
  auto recovered = Perseas::recover(cluster_, 3, {&mirror1_, &mirror2_});
  EXPECT_EQ(prefix(recovered), "GOLDEN");
  EXPECT_EQ(recovered.mirror_count(), 1u);  // only mirror2 was reachable
}

TEST_F(PerseasMirrorTest, RecoveryResynchronizesSecondaryMirrors) {
  auto& db = make_db();
  // Crash mid-commit so mirror states could diverge, then recover.
  cluster_.failures().arm("perseas.commit.before_flag_clear", [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
  });
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  EXPECT_THROW(
      {
        txn.set_range(rec, 0, 8);
        std::memcpy(rec.bytes().data(), "DIRTY...", 8);
        txn.commit();
      },
      sim::NodeCrashed);

  auto recovered = Perseas::recover(cluster_, 3, {&mirror1_, &mirror2_});
  EXPECT_EQ(recovered.mirror_count(), 2u);
  EXPECT_EQ(prefix(recovered), "GOLDEN");
  EXPECT_GT(recovered.stats().mirror_rebuilds, 0u);

  // Both mirrors hold the recovered image again: kill either and recover.
  cluster_.restart_node(0);
  cluster_.crash_node(3);
  cluster_.crash_node(2);
  auto again = Perseas::recover(cluster_, 0, {&mirror1_, &mirror2_});
  EXPECT_EQ(prefix(again), "GOLDEN");
}

TEST_F(PerseasMirrorTest, PowerOutageOnOneSupplySurvives) {
  // Paper section 1: mirror workstations are connected to different power
  // supplies, which are unlikely to malfunction concurrently.
  (void)make_db();
  cluster_.fail_power_supply(cluster_.node(0).power_supply());
  EXPECT_TRUE(cluster_.node(0).crashed());
  EXPECT_FALSE(cluster_.node(1).crashed());
  auto recovered = Perseas::recover(cluster_, 3, {&mirror1_, &mirror2_});
  EXPECT_EQ(prefix(recovered), "GOLDEN");
}

TEST_F(PerseasMirrorTest, SharedSupplyIsASinglePointOfFailure) {
  // Counter-experiment: putting the primary and every mirror on ONE supply
  // recreates the failure mode the paper's deployment rule avoids.
  netram::Cluster shared(sim::HardwareProfile::forth_1997(), 3);
  shared.attach_power(1, 0);
  shared.attach_power(2, 0);
  netram::RemoteMemoryServer server(shared, 1);
  Perseas db(shared, 0, {&server}, {});
  (void)db.persistent_malloc(64);
  db.init_remote_db();

  shared.fail_power_supply(0);
  shared.restore_power_supply(0);
  shared.restart_node(0);
  shared.restart_node(1);
  shared.restart_node(2);
  EXPECT_THROW(Perseas::recover(shared, 0, {&server}), RecoveryError);
}

TEST_F(PerseasMirrorTest, MirrorCrashDuringCommitIsRecoverableLocally) {
  auto& db = make_db();
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  std::memcpy(rec.bytes().data(), "NEWDATA.", 8);
  cluster_.crash_node(1);  // first mirror dies before commit
  EXPECT_THROW(txn.commit(), sim::NodeCrashed);
  // The transaction is still active: abort locally, rebuild the mirror,
  // and retry — no data was lost.
  txn.abort();
  EXPECT_EQ(prefix(db), "GOLDEN");
  cluster_.restart_node(1);
  db.rebuild_mirror(0);
  {
    auto retry = db.begin_transaction();
    retry.set_range(rec, 0, 8);
    std::memcpy(rec.bytes().data(), "NEWDATA.", 8);
    retry.commit();
  }
  EXPECT_EQ(prefix(db), "NEWDAT");
}

TEST_F(PerseasMirrorTest, RebuildMirrorRestoresReplication) {
  auto& db = make_db();
  cluster_.crash_node(2);
  cluster_.restart_node(2);
  db.rebuild_mirror(1);
  // Now kill everything except the rebuilt mirror.
  cluster_.crash_node(0);
  cluster_.crash_node(1);
  auto recovered = Perseas::recover(cluster_, 3, {&mirror2_});
  EXPECT_EQ(prefix(recovered), "GOLDEN");
}

TEST_F(PerseasMirrorTest, RebuildMirrorIndexValidated) {
  auto& db = make_db();
  EXPECT_THROW(db.rebuild_mirror(5), UsageError);
}

TEST_F(PerseasMirrorTest, HungMirrorDelaysCommitButLosesNothing) {
  // Paper section 1: correlated disruptions (e.g. a crashed file server)
  // may affect performance but not correctness.
  auto& db = make_db();
  auto rec = db.record(0);
  cluster_.hang_node(1, sim::ms(200));
  const auto t0 = cluster_.clock().now();
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 8);
  std::memcpy(rec.bytes().data(), "SLOWOK..", 8);
  txn.commit();
  EXPECT_GE(cluster_.clock().now() - t0, sim::ms(200));
  EXPECT_EQ(prefix(db), "SLOWOK");
}

}  // namespace
}  // namespace perseas::core

// One conformance suite, run against every engine (PERSEAS and all
// comparators) through the uniform TxnEngine interface: identical
// transactional semantics are a precondition for a fair performance
// comparison.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "workload/engines.hpp"

namespace perseas::workload {
namespace {

class EngineConformance : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineConformance() {
    LabOptions options;
    options.db_size = 64 << 10;
    lab_ = std::make_unique<EngineLab>(GetParam(), options);
  }

  TxnEngine& engine() { return lab_->engine(); }

  std::unique_ptr<EngineLab> lab_;
};

TEST_P(EngineConformance, ReportsItsIdentity) {
  EXPECT_EQ(engine().name(), to_string(GetParam()));
  EXPECT_EQ(engine().db_size(), 64u << 10);
  EXPECT_EQ(engine().db().size(), 64u << 10);
}

TEST_P(EngineConformance, DatabaseStartsZeroed) {
  for (std::uint64_t i = 0; i < engine().db_size(); i += 997) {
    ASSERT_EQ(engine().db()[i], std::byte{0}) << i;
  }
}

TEST_P(EngineConformance, CommitKeepsUpdates) {
  engine().begin();
  engine().set_range(100, 5);
  std::memcpy(engine().db().data() + 100, "hello", 5);
  engine().commit();
  EXPECT_EQ(std::memcmp(engine().db().data() + 100, "hello", 5), 0);
}

TEST_P(EngineConformance, AbortRollsBack) {
  engine().begin();
  engine().set_range(0, 4);
  std::memcpy(engine().db().data(), "good", 4);
  engine().commit();

  engine().begin();
  engine().set_range(0, 4);
  std::memcpy(engine().db().data(), "evil", 4);
  engine().abort();
  EXPECT_EQ(std::memcmp(engine().db().data(), "good", 4), 0);
}

TEST_P(EngineConformance, SequentialTransactionsCompose) {
  for (int i = 0; i < 20; ++i) {
    engine().begin();
    engine().set_range(static_cast<std::uint64_t>(i) * 8, 8);
    engine().db()[static_cast<std::size_t>(i) * 8] = static_cast<std::byte>(i + 1);
    engine().commit();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine().db()[static_cast<std::size_t>(i) * 8], static_cast<std::byte>(i + 1));
  }
}

TEST_P(EngineConformance, MultiRangeTransactionIsAtomicOnAbort) {
  engine().begin();
  engine().set_range(0, 16);
  engine().set_range(1000, 16);
  std::memset(engine().db().data(), 0xAA, 16);
  std::memset(engine().db().data() + 1000, 0xBB, 16);
  engine().abort();
  EXPECT_EQ(engine().db()[0], std::byte{0});
  EXPECT_EQ(engine().db()[1000], std::byte{0});
}

TEST_P(EngineConformance, EveryTransactionAdvancesSimulatedTime) {
  const auto t0 = lab_->cluster().clock().now();
  engine().begin();
  engine().set_range(0, 8);
  engine().commit();
  EXPECT_GT(lab_->cluster().clock().now(), t0);
}

// Recovery through the one engine interface: a software crash of the
// application node loses the open transaction, TxnEngine::recover() brings
// back the committed image, and the engine then commits again.
using EngineRecovery = EngineConformance;

TEST_P(EngineRecovery, RecoverDropsTheOpenTransactionAndKeepsWorking) {
  engine().begin();
  engine().set_range(0, 4);
  std::memcpy(engine().db().data(), "good", 4);
  engine().commit();

  engine().begin();
  engine().set_range(0, 4);
  std::memcpy(engine().db().data(), "evil", 4);
  lab_->cluster().crash_node(engine().app_node(), sim::FailureKind::kSoftwareCrash);
  (void)engine().recover();
  EXPECT_FALSE(lab_->cluster().node(engine().app_node()).crashed());
  EXPECT_EQ(std::memcmp(engine().db().data(), "good", 4), 0);
  // The model checker's hygiene invariant: a second recovery right after
  // the first applies nothing.  remote-wal is left out: it replays its
  // whole redo log on every recovery (CHANGES.md, PR 20's FOUND line), and
  // a fix needs a real checkpoint image, because its database survives
  // the crash in host memory.
  if (GetParam() != EngineKind::kRemoteWal) {
    EXPECT_EQ(engine().recover(), 0u) << "a second recovery applied log records";
  }

  engine().begin();
  engine().set_range(4, 4);
  std::memcpy(engine().db().data() + 4, "next", 4);
  engine().commit();
  EXPECT_EQ(std::memcmp(engine().db().data(), "goodnext", 8), 0);
}

std::string engine_test_name(const ::testing::TestParamInfo<EngineKind>& info) {
  std::string name(to_string(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConformance,
                         ::testing::Values(EngineKind::kPerseas, EngineKind::kVista,
                                           EngineKind::kRvmRio, EngineKind::kRvmDisk,
                                           EngineKind::kRvmDiskGroupCommit,
                                           EngineKind::kRvmNvram, EngineKind::kRemoteWal,
                                           EngineKind::kFsMirror),
                         engine_test_name);

// rvm-disk-group is left out: its unforced commit group is lost in a crash
// by design, so "good" itself does not survive.
INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRecovery,
                         ::testing::Values(EngineKind::kPerseas, EngineKind::kVista,
                                           EngineKind::kRvmRio, EngineKind::kRvmDisk,
                                           EngineKind::kRvmNvram, EngineKind::kRemoteWal,
                                           EngineKind::kFsMirror),
                         engine_test_name);

}  // namespace
}  // namespace perseas::workload

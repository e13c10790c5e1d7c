#include "sim/failure.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace perseas::sim {
namespace {

using core::points::PointId;

// Injector points are registry rows; any three distinct ones will do.
constexpr PointId kX = "perseas.commit.after_flag_set";
constexpr PointId kY = "perseas.commit.done";
constexpr PointId kNever = "vista.recover.done";

TEST(FailureKind, Names) {
  EXPECT_EQ(to_string(FailureKind::kPowerOutage), "power-outage");
  EXPECT_EQ(to_string(FailureKind::kHardwareFault), "hardware-fault");
  EXPECT_EQ(to_string(FailureKind::kSoftwareCrash), "software-crash");
  EXPECT_EQ(to_string(FailureKind::kHang), "hang");
}

TEST(NodeCrashed, CarriesContext) {
  const NodeCrashed e(3, FailureKind::kPowerOutage, "perseas.commit.after_flag_set");
  EXPECT_EQ(e.node_id(), 3u);
  EXPECT_EQ(e.kind(), FailureKind::kPowerOutage);
  EXPECT_EQ(e.point(), "perseas.commit.after_flag_set");
  EXPECT_NE(std::string(e.what()).find("node 3"), std::string::npos);
}

TEST(FailureInjector, NotifyCountsHits) {
  FailureInjector fi;
  fi.notify(kX);
  fi.notify(kX);
  fi.notify(kY);
  EXPECT_EQ(fi.hits(kX), 2u);
  EXPECT_EQ(fi.hits(kY), 1u);
  EXPECT_EQ(fi.hits(kNever), 0u);
}

TEST(FailureInjector, ArmFiresOnNextHit) {
  FailureInjector fi;
  int fired = 0;
  fi.arm(kX, [&] { ++fired; });
  fi.notify(kY);
  EXPECT_EQ(fired, 0);
  fi.notify(kX);
  EXPECT_EQ(fired, 1);
  fi.notify(kX);  // one-shot
  EXPECT_EQ(fired, 1);
}

TEST(FailureInjector, CountdownSkipsHits) {
  FailureInjector fi;
  int fired = 0;
  fi.arm(kX, 2, [&] { ++fired; });  // fire on the 3rd hit from now
  fi.notify(kX);
  fi.notify(kX);
  EXPECT_EQ(fired, 0);
  fi.notify(kX);
  EXPECT_EQ(fired, 1);
}

TEST(FailureInjector, CountdownIsRelativeToCurrentHits) {
  FailureInjector fi;
  fi.notify(kX);
  fi.notify(kX);
  int fired = 0;
  fi.arm(kX, 0, [&] { ++fired; });  // next hit, regardless of history
  fi.notify(kX);
  EXPECT_EQ(fired, 1);
}

TEST(FailureInjector, ThrowingActionIsRemovedBeforeItThrows) {
  FailureInjector fi;
  fi.arm(kX, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fi.notify(kX), std::runtime_error);
  // Re-entering the point after the crash must not re-fire.
  EXPECT_NO_THROW(fi.notify(kX));
}

TEST(FailureInjector, MultipleArmsOnOnePointAllFire) {
  FailureInjector fi;
  int fired = 0;
  fi.arm(kX, [&] { ++fired; });
  fi.arm(kX, [&] { ++fired; });
  fi.notify(kX);
  EXPECT_EQ(fired, 2);
}

TEST(FailureInjector, ClearDisarms) {
  FailureInjector fi;
  int fired = 0;
  fi.arm(kX, [&] { ++fired; });
  fi.clear();
  fi.notify(kX);
  EXPECT_EQ(fired, 0);
}

TEST(FailureInjector, ClearKeepsHitCounts) {
  FailureInjector fi;
  fi.notify(kX);
  fi.notify(kX);
  fi.arm(kX, [] {});
  fi.clear();
  EXPECT_EQ(fi.hits(kX), 2u);  // documented: clear() disarms only
  EXPECT_EQ(fi.armed_count(), 0u);
}

TEST(FailureInjector, ResetForgetsCountsAndRebasesCountdowns) {
  FailureInjector fi;
  fi.notify(kX);
  fi.notify(kX);
  fi.arm(kX, [] {});
  fi.reset();
  EXPECT_EQ(fi.hits(kX), 0u);
  EXPECT_EQ(fi.armed_count(), 0u);
  EXPECT_EQ(fi.snapshot(), FailureInjector::HitCounts{});
  // A fresh countdown indexes from zero again, as on a new injector.
  int fired = 0;
  fi.arm(kX, 1, [&] { ++fired; });
  fi.notify(kX);
  EXPECT_EQ(fired, 0);
  fi.notify(kX);
  EXPECT_EQ(fired, 1);
}

// The snapshot is sorted by registry row: entry p.index() is p's count.
TEST(FailureInjector, SnapshotIsSortedPerPointCounts) {
  FailureInjector fi;
  EXPECT_EQ(fi.snapshot(), FailureInjector::HitCounts{});
  fi.notify(kY);
  fi.notify(kX);
  fi.notify(kY);
  FailureInjector::HitCounts expected{};
  expected[kX.index()] = 1;
  expected[kY.index()] = 2;
  EXPECT_EQ(fi.snapshot(), expected);
}

TEST(FailureInjector, ArmedCountTracksFiredActions) {
  FailureInjector fi;
  fi.arm(kX, [] {});
  fi.arm(kY, 3, [] {});
  EXPECT_EQ(fi.armed_count(), 2u);
  fi.notify(kX);  // fires and removes itself
  EXPECT_EQ(fi.armed_count(), 1u);
}

// The observer sees every firing with its new hit count, before the armed
// actions run: a throwing crash action still leaves the firing on record.
TEST(FailureInjector, ObserverSeesFiringBeforeActions) {
  std::vector<std::pair<PointId, std::uint64_t>> seen;
  FailureInjector fi([&](PointId point, std::uint64_t hits) { seen.emplace_back(point, hits); });
  fi.notify(kY);
  fi.arm(kX, [&] {
    EXPECT_EQ(seen.size(), 2u);
    throw std::runtime_error("crash");
  });
  EXPECT_THROW(fi.notify(kX), std::runtime_error);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, kY);
  EXPECT_EQ(seen[1].first, kX);
  EXPECT_EQ(seen[1].second, 1u);
}

// A name read from input resolves through the registry at run time.
TEST(PointId, FindResolvesRegisteredNamesOnly) {
  const auto found = PointId::find("perseas.commit.after_flag_set");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, kX);
  EXPECT_STREQ(found->name(), "perseas.commit.after_flag_set");
  EXPECT_EQ(found->row().order, 30);
  EXPECT_FALSE(PointId::find("perseas.commit.after_flag_sett").has_value());
  EXPECT_EQ(PointId::all().size(), core::points::kFailurePointCount);
  for (std::size_t i = 0; i < PointId::all().size(); ++i) {
    EXPECT_EQ(PointId::all()[i].index(), i);
  }
}

// Hits are counted per thread and summed on read; an armed countdown is
// judged against the point's total, so it fires exactly once however the
// notifying threads interleave.
TEST(FailureInjector, ThreadsCountHitsExactlyAndArmedActionFiresOnce) {
  std::atomic<std::uint64_t> observed{0};
  FailureInjector f([&observed](PointId, std::uint64_t) { observed.fetch_add(1); });
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  const auto run = [&f] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&f] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) f.notify(kX);
      });
    }
    for (auto& th : threads) th.join();
  };
  run();
  EXPECT_EQ(f.hits(kX), kThreads * kPerThread);
  EXPECT_EQ(f.snapshot()[kX.index()], kThreads * kPerThread);
  EXPECT_EQ(f.hits(kY), 0u);

  std::atomic<int> fired{0};
  f.arm(kX, 1'000, [&fired] { fired.fetch_add(1); });
  run();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(f.armed_count(), 0u);
  EXPECT_EQ(f.hits(kX), 2 * kThreads * kPerThread);
  EXPECT_EQ(observed.load(), 2 * kThreads * kPerThread);
  f.reset();
  EXPECT_EQ(f.hits(kX), 0u);
}

}  // namespace
}  // namespace perseas::sim

#include "sim/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace perseas::sim {
namespace {

/// Counts observer callbacks; used by the threading tests below.
/// Atomic because the observer hook runs on whichever thread charges (the
/// production observer, obs::CostLedger, books into per-thread shards).
struct CountingObserver final : SimClock::ChargeObserver {
  std::atomic<SimDuration> charged{0};
  std::atomic<int> advances{0};
  void on_advance(SimDuration d) noexcept override {
    charged.fetch_add(d, std::memory_order_relaxed);
    advances.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(SimClock, StartsAtZero) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(clock.advance_count(), 0u);
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock clock;
  clock.advance(us(2.5));
  clock.advance(ms(1.0));
  EXPECT_EQ(clock.now(), 2'500 + 1'000'000);
  EXPECT_EQ(clock.advance_count(), 2u);
}

TEST(SimClock, ZeroAdvanceCountsButDoesNotMove) {
  SimClock clock;
  clock.advance(0);
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(clock.advance_count(), 1u);
}

TEST(StopWatch, MeasuresOnlyItsWindow) {
  SimClock clock;
  clock.advance(us(10));
  StopWatch watch(clock);
  EXPECT_EQ(watch.elapsed(), 0);
  clock.advance(us(3));
  EXPECT_EQ(watch.elapsed(), us(3.0));
  clock.advance(us(4));
  EXPECT_EQ(watch.elapsed(), us(7.0));
}

// --- ThreadClock: the per-thread virtual-time front ---------------------

TEST(ThreadClock, AccumulatesLocallyAndFoldsInAtMerge) {
  SimClock clock;
  EXPECT_EQ(current_worker_id(), 0u);
  {
    ThreadClock tc(clock, 3);
    EXPECT_EQ(current_worker_id(), 3u);
    EXPECT_EQ(clock.thread_fronts(), 1u);

    clock.advance(100);
    clock.advance(50);
    // This thread sees its own timeline immediately...
    EXPECT_EQ(clock.now(), 150);
    EXPECT_EQ(tc.local_time(), 150);
    // ...but the shared counters move only at the merge sync point.
    EXPECT_EQ(clock.advance_count(), 0u);

    tc.merge();
    EXPECT_EQ(clock.now(), 150);
    EXPECT_EQ(clock.advance_count(), 2u);

    clock.advance(25);
    EXPECT_EQ(clock.now(), 175);
    EXPECT_EQ(tc.local_time(), 175) << "local_time spans merges";
  }
  // Destruction merged the remaining 25 and unregistered the front.
  EXPECT_EQ(current_worker_id(), 0u);
  EXPECT_EQ(clock.thread_fronts(), 0u);
  EXPECT_EQ(clock.now(), 175);
  EXPECT_EQ(clock.advance_count(), 3u);
}

TEST(ThreadClock, ObserverSeesChargesBeforeTheMerge) {
  SimClock clock;
  CountingObserver obs;
  clock.set_observer(&obs);
  ThreadClock tc(clock, 1);
  clock.advance(70);
  // No merge yet — the conservation hook must still have seen the charge,
  // or a ledger would drop nanoseconds that later fold into the clock.
  EXPECT_EQ(obs.charged.load(), 70);
  EXPECT_EQ(obs.advances.load(), 1);
}

TEST(ThreadClock, FrontOnOneClockDoesNotCaptureAnother) {
  SimClock mine;
  SimClock other;
  ThreadClock tc(mine, 1);
  other.advance(30);  // different clock: the classic direct path
  EXPECT_EQ(other.now(), 30);
  EXPECT_EQ(other.advance_count(), 1u);
  EXPECT_EQ(tc.local_time(), 0);
}

TEST(ThreadClock, ConcurrentWorkersSumExactlyIntoTheSharedClock) {
  SimClock clock;
  CountingObserver obs;
  clock.set_observer(&obs);
  constexpr int kThreads = 4;
  constexpr int kChargesPerThread = 1'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, t] {
      ThreadClock tc(clock, static_cast<std::uint32_t>(t) + 1);
      for (int i = 0; i < kChargesPerThread; ++i) {
        clock.advance(7);
        if (i % 100 == 99) tc.merge();
      }
      // Remaining charges merge in the destructor.
    });
  }
  for (auto& t : threads) t.join();
  // The shared clock is the exact total of every thread's charges —
  // whatever the interleaving of the merges.
  EXPECT_EQ(clock.now(), static_cast<SimTime>(kThreads) * kChargesPerThread * 7);
  EXPECT_EQ(clock.advance_count(),
            static_cast<std::uint64_t>(kThreads) * kChargesPerThread);
  EXPECT_EQ(obs.charged.load(), clock.now()) << "observer saw every charge";
  EXPECT_EQ(clock.thread_fronts(), 0u);
}

}  // namespace
}  // namespace perseas::sim

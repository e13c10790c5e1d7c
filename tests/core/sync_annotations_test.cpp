// Locks the perseas::sync contract (src/core/sync.hpp): the annotated
// Mutex/LockGuard pair behaves like the std primitives it wraps, and the
// canonical annotation patterns used across the library — GUARDED_BY
// members behind locking accessors, REQUIRES private helpers, EXCLUDES
// entry points — compile under clang's -Wthread-safety analysis (this file
// builds with PERSEAS_THREAD_SAFETY=ON on the CI clang legs, so a pattern
// regression fails the build).  The inverse direction — that a violation
// actually *fails* — is tests/core/sync_negative_compile.cpp, driven as a
// WILL_FAIL negative-compile test from tests/CMakeLists.txt.
#include "core/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

using perseas::sync::LockGuard;
using perseas::sync::Mutex;

// Locks are identities, never values.
static_assert(!std::is_copy_constructible_v<Mutex>);
static_assert(!std::is_copy_assignable_v<Mutex>);
static_assert(!std::is_move_constructible_v<Mutex>);
static_assert(!std::is_copy_constructible_v<LockGuard>);
static_assert(!std::is_copy_assignable_v<LockGuard>);

/// The library's standard shape: guarded state, locking public accessors,
/// a REQUIRES private helper called only under the lock, and an EXCLUDES
/// entry point that takes the lock itself.
class GuardedCounter {
 public:
  void add(std::uint64_t n) PERSEAS_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    add_locked(n);
  }

  [[nodiscard]] std::uint64_t value() const PERSEAS_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return value_;
  }

 private:
  void add_locked(std::uint64_t n) PERSEAS_REQUIRES(mu_) { value_ += n; }

  mutable Mutex mu_;
  std::uint64_t value_ PERSEAS_GUARDED_BY(mu_) = 0;
};

TEST(SyncAnnotationsTest, GuardedCounterIsExactUnderContention) {
  GuardedCounter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

// The spin-then-block path under real contention: four threads take the
// lock 100,000 times each through LockGuard, and not one increment is
// lost.
TEST(SyncAnnotationsTest, SpinningLockKeepsEveryIncrement) {
  GuardedCounter counter;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

// try_lock must fail, not spin, while another thread holds the mutex, and
// succeed once that thread lets go.
TEST(SyncAnnotationsTest, TryLockFailsWhileAnotherThreadHolds) {
  Mutex mu;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    LockGuard lock(mu);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  bool acquired = mu.try_lock();
  if (acquired) mu.unlock();
  EXPECT_FALSE(acquired);
  release.store(true);
  holder.join();
  acquired = mu.try_lock();
  if (acquired) mu.unlock();
  EXPECT_TRUE(acquired);
}

TEST(SyncAnnotationsTest, TryLockReflectsHeldState) {
  Mutex mu;
  bool acquired = true;
  {
    LockGuard lock(mu);
    // try_lock from the owning thread is UB for std::mutex, so probe from
    // another thread.
    std::thread probe([&] { acquired = mu.try_lock(); });
    probe.join();
    EXPECT_FALSE(acquired);
  }
  std::thread probe([&] {
    acquired = mu.try_lock();
    if (acquired) mu.unlock();
  });
  probe.join();
  EXPECT_TRUE(acquired);
}

TEST(SyncAnnotationsTest, LockGuardReleasesOnException) {
  Mutex mu;
  try {
    LockGuard lock(mu);
    throw std::runtime_error("unwind through the guard");
  } catch (const std::runtime_error&) {
  }
  bool acquired = false;
  std::thread probe([&] {
    acquired = mu.try_lock();
    if (acquired) mu.unlock();
  });
  probe.join();
  EXPECT_TRUE(acquired);
}

TEST(SyncAnnotationsTest, ManualLockUnlockPairsWithTryLock) {
  Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
  mu.lock();
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();
}

}  // namespace

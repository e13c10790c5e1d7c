#include "netram/arena_allocator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.hpp"

namespace perseas::netram {
namespace {

TEST(ArenaAllocator, AllocatesAlignedDisjointBlocks) {
  ArenaAllocator a(4096, 64);
  const auto x = a.allocate(100);
  const auto y = a.allocate(100);
  ASSERT_TRUE(x && y);
  EXPECT_EQ(*x % 64, 0u);
  EXPECT_EQ(*y % 64, 0u);
  EXPECT_NE(*x, *y);
  // 100 rounds up to 128; blocks must not overlap.
  EXPECT_GE(*y, *x + 128);
}

TEST(ArenaAllocator, ZeroSizeFails) {
  ArenaAllocator a(4096);
  EXPECT_FALSE(a.allocate(0).has_value());
}

TEST(ArenaAllocator, ExhaustionReturnsNullopt) {
  ArenaAllocator a(256, 64);
  EXPECT_TRUE(a.allocate(256).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
}

TEST(ArenaAllocator, FreeEnablesReuse) {
  ArenaAllocator a(256, 64);
  const auto x = a.allocate(256);
  ASSERT_TRUE(x);
  EXPECT_TRUE(a.free(*x));
  EXPECT_TRUE(a.allocate(256).has_value());
}

TEST(ArenaAllocator, FreeUnknownOffsetFails) {
  ArenaAllocator a(256, 64);
  EXPECT_FALSE(a.free(0));
  const auto x = a.allocate(64);
  ASSERT_TRUE(x);
  EXPECT_FALSE(a.free(*x + 64));
  EXPECT_TRUE(a.free(*x));
  EXPECT_FALSE(a.free(*x));  // double free
}

TEST(ArenaAllocator, CoalescingRebuildsLargeHole) {
  ArenaAllocator a(3 * 64, 64);
  const auto x = a.allocate(64);
  const auto y = a.allocate(64);
  const auto z = a.allocate(64);
  ASSERT_TRUE(x && y && z);
  EXPECT_FALSE(a.allocate(64).has_value());
  // Free in an order that exercises both successor and predecessor merging.
  a.free(*y);
  a.free(*x);
  a.free(*z);
  EXPECT_EQ(a.largest_free_block(), 3u * 64);
  EXPECT_TRUE(a.allocate(3 * 64).has_value());
}

TEST(ArenaAllocator, TracksUsage) {
  ArenaAllocator a(1024, 64);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  const auto x = a.allocate(100);  // rounds to 128
  ASSERT_TRUE(x);
  EXPECT_EQ(a.bytes_in_use(), 128u);
  EXPECT_EQ(a.bytes_free(), 1024u - 128);
  EXPECT_EQ(a.live_allocations(), 1u);
  EXPECT_TRUE(a.is_allocated(*x));
  EXPECT_EQ(a.allocation_size(*x), 128u);
  a.free(*x);
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

TEST(ArenaAllocator, ResetReleasesEverything) {
  ArenaAllocator a(1024, 64);
  (void)a.allocate(512);
  (void)a.allocate(256);
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.largest_free_block(), 1024u);
}

// The high-water mark bounds every byte a block has covered since the last
// reset: Node::crash and Node::restart fill only below it.
TEST(ArenaAllocator, HighWaterTracksTheHighestBlockEverHandedOut) {
  ArenaAllocator a(4096, 64);
  EXPECT_EQ(a.high_water(), 0u);
  const auto x = a.allocate(100);  // [0, 128)
  const auto y = a.allocate(64);   // [128, 192)
  ASSERT_TRUE(x && y);
  EXPECT_EQ(a.high_water(), 192u);
  // free() does not lower the mark: the freed bytes may still hold data.
  ASSERT_TRUE(a.free(*y));
  EXPECT_EQ(a.high_water(), 192u);
  ASSERT_TRUE(a.free(*x));
  EXPECT_EQ(a.high_water(), 192u);
  // First-fit reuse below the mark leaves it where it is.
  const auto z = a.allocate(64);
  ASSERT_TRUE(z);
  EXPECT_EQ(*z, 0u);
  EXPECT_EQ(a.high_water(), 192u);
  // A block past the old mark raises it to that block's end.
  const auto w = a.allocate(256);
  ASSERT_TRUE(w);
  EXPECT_EQ(*w, 64u);
  EXPECT_EQ(a.high_water(), 320u);
  a.reset();
  EXPECT_EQ(a.high_water(), 0u);
}

TEST(ArenaAllocator, NonPowerOfTwoAlignmentRejected) {
  EXPECT_THROW(ArenaAllocator(1024, 48), std::invalid_argument);
  EXPECT_THROW(ArenaAllocator(1024, 0), std::invalid_argument);
}

TEST(ArenaAllocator, CapacityTruncatedToAlignment) {
  ArenaAllocator a(100, 64);
  EXPECT_EQ(a.capacity(), 64u);
}

// Property test: a randomized alloc/free workload never hands out
// overlapping blocks, and usage bookkeeping always balances.
TEST(ArenaAllocator, RandomizedAllocFreeFuzz) {
  sim::Rng rng(1234);
  ArenaAllocator a(1 << 16, 64);
  std::map<std::uint64_t, std::uint64_t> live;  // offset -> rounded size
  std::uint64_t expected_use = 0;

  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const std::uint64_t size = 1 + rng.below(700);
      const auto got = a.allocate(size);
      if (got) {
        const std::uint64_t rounded = (size + 63) / 64 * 64;
        // No overlap with any live block.
        const auto next = live.lower_bound(*got);
        if (next != live.end()) {
          ASSERT_LE(*got + rounded, next->first);
        }
        if (next != live.begin()) {
          const auto prev = std::prev(next);
          ASSERT_LE(prev->first + prev->second, *got);
        }
        live[*got] = rounded;
        expected_use += rounded;
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      ASSERT_TRUE(a.free(it->first));
      expected_use -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(a.bytes_in_use(), expected_use);
    ASSERT_EQ(a.live_allocations(), live.size());
  }
  for (const auto& [off, size] : live) ASSERT_TRUE(a.free(off));
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.largest_free_block(), a.capacity());
}

}  // namespace
}  // namespace perseas::netram

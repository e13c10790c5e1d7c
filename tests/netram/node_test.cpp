#include "netram/node.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace perseas::netram {
namespace {

TEST(Node, ConstructionState) {
  Node n(2, "node-2", 4096, 1);
  EXPECT_EQ(n.id(), 2u);
  EXPECT_EQ(n.name(), "node-2");
  EXPECT_EQ(n.power_supply(), 1u);
  EXPECT_FALSE(n.crashed());
  EXPECT_EQ(n.crash_epoch(), 0u);
  EXPECT_EQ(n.arena_bytes(), 4096u);
}

TEST(Node, MemoryStartsZeroed) {
  Node n(0, "n", 256, 0);
  auto span = n.mem(0, 256);
  for (const std::byte b : span) EXPECT_EQ(b, std::byte{0});
}

TEST(Node, MemBoundsChecked) {
  Node n(0, "n", 256, 0);
  EXPECT_NO_THROW((void)n.mem(0, 256));
  EXPECT_NO_THROW((void)n.mem(255, 1));
  EXPECT_THROW((void)n.mem(0, 257), std::out_of_range);
  EXPECT_THROW((void)n.mem(256, 1), std::out_of_range);
  EXPECT_THROW((void)n.mem(~0ULL, 2), std::out_of_range);  // overflow guard
}

TEST(Node, CrashWipesMemoryWithGarbage) {
  Node n(0, "n", 64, 0);
  const auto off = n.allocator().allocate(8);
  ASSERT_TRUE(off);
  auto span = n.mem(*off, 8);
  std::memset(span.data(), 0x42, 8);
  n.crash(sim::FailureKind::kSoftwareCrash);
  EXPECT_TRUE(n.crashed());
  EXPECT_EQ(n.crash_epoch(), 1u);
  EXPECT_EQ(n.last_failure(), sim::FailureKind::kSoftwareCrash);
  // Contents are garbage, not the old value and not zero.
  EXPECT_EQ(n.mem(*off, 1)[0], std::byte{0xDB});
}

// free() does not lower the high-water mark: a block freed before the
// crash held data too, and is poisoned with the rest.
TEST(Node, CrashPoisonsFreedBlocks) {
  Node n(0, "n", 4096, 0);
  const auto freed = n.allocator().allocate(256);
  ASSERT_TRUE(freed);
  std::memset(n.mem(*freed, 256).data(), 0x42, 256);
  ASSERT_TRUE(n.allocator().free(*freed));
  n.crash(sim::FailureKind::kPowerOutage);
  for (const std::byte b : n.mem(*freed, 256)) ASSERT_EQ(b, std::byte{0xDB});
}

// Crash and restart touch only what was handed out: the last arena byte,
// far above every allocation, reads zero after both.  A whole-arena fill
// would leave 0xDB there after the crash.
TEST(Node, CrashAndRestartLeaveMemoryAboveTheHighWaterMarkZero) {
  constexpr std::uint64_t kArena = 1 << 20;
  Node n(0, "n", kArena, 0);
  const auto off = n.allocator().allocate(4096);
  ASSERT_TRUE(off);
  std::memset(n.mem(*off, 4096).data(), 0x42, 4096);
  ASSERT_LT(n.allocator().high_water(), kArena);
  n.crash(sim::FailureKind::kSoftwareCrash);
  EXPECT_EQ(n.mem(*off + 4095, 1)[0], std::byte{0xDB});
  EXPECT_EQ(n.mem(kArena - 1, 1)[0], std::byte{0});
  n.restart();
  EXPECT_EQ(n.mem(*off, 1)[0], std::byte{0});
  EXPECT_EQ(n.mem(kArena - 1, 1)[0], std::byte{0});
  EXPECT_EQ(n.allocator().high_water(), 0u);
}

TEST(Node, RestartZeroesMemoryAndResetsAllocator) {
  Node n(0, "n", 256, 0);
  const auto off = n.allocator().allocate(64);
  ASSERT_TRUE(off);
  n.crash(sim::FailureKind::kPowerOutage);
  n.restart();
  EXPECT_FALSE(n.crashed());
  EXPECT_EQ(n.mem(0, 1)[0], std::byte{0});
  EXPECT_EQ(n.allocator().bytes_in_use(), 0u);
  // The epoch keeps counting across restarts so stale services notice.
  EXPECT_EQ(n.crash_epoch(), 1u);
  n.crash(sim::FailureKind::kHardwareFault);
  EXPECT_EQ(n.crash_epoch(), 2u);
}

TEST(Node, HangStateIsJustATimestamp) {
  Node n(0, "n", 64, 0);
  n.hang_until(12345);
  EXPECT_EQ(n.hang_until(), 12345);
  n.restart();
  EXPECT_EQ(n.hang_until(), 0);
}

}  // namespace
}  // namespace perseas::netram

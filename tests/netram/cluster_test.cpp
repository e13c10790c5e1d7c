#include "netram/cluster.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace perseas::netram {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  sim::HardwareProfile profile_ = sim::HardwareProfile::forth_1997();
};

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST_F(ClusterTest, DefaultsGiveEachNodeItsOwnSupply) {
  Cluster c(profile_, 3);
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.power_supply_count(), 3u);
  EXPECT_NE(c.node(0).power_supply(), c.node(1).power_supply());
}

TEST_F(ClusterTest, AttachPowerSharesOneSupply) {
  Cluster c(profile_, 3);
  c.attach_power(1, c.node(0).power_supply());
  c.attach_power(2, c.node(0).power_supply());
  EXPECT_EQ(c.node(0).power_supply(), c.node(1).power_supply());
  EXPECT_EQ(c.node(0).power_supply(), c.node(2).power_supply());
  EXPECT_THROW(c.attach_power(0, c.power_supply_count()), std::out_of_range);
}

TEST_F(ClusterTest, ZeroNodesRejected) {
  ClusterConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(Cluster(profile_, cfg), std::invalid_argument);
}

TEST_F(ClusterTest, RemoteWriteMovesBytesAndAdvancesClock) {
  Cluster c(profile_, 2);
  const auto data = bytes_of("hello");
  const auto before = c.clock().now();
  c.remote_write(0, 1, 128, data);
  EXPECT_GT(c.clock().now(), before);
  auto dst = c.node(1).mem(128, 5);
  EXPECT_EQ(std::memcmp(dst.data(), "hello", 5), 0);
  EXPECT_EQ(c.stats().remote_writes, 1u);
  EXPECT_EQ(c.stats().remote_write_bytes, 5u);
}

TEST_F(ClusterTest, RemoteReadPullsBytes) {
  Cluster c(profile_, 2);
  auto src = c.node(1).mem(64, 3);
  std::memcpy(src.data(), "abc", 3);
  std::vector<std::byte> out(3);
  c.remote_read(0, 1, 64, out);
  EXPECT_EQ(std::memcmp(out.data(), "abc", 3), 0);
  EXPECT_EQ(c.stats().remote_reads, 1u);
}

TEST_F(ClusterTest, WriteToCrashedNodeThrows) {
  Cluster c(profile_, 2);
  c.crash_node(1, sim::FailureKind::kSoftwareCrash);
  const auto data = bytes_of("x");
  EXPECT_THROW(c.remote_write(0, 1, 0, data), sim::NodeCrashed);
  EXPECT_THROW(c.control_rpc(0, 1), sim::NodeCrashed);
}

TEST_F(ClusterTest, WriteFromCrashedNodeThrows) {
  Cluster c(profile_, 2);
  c.crash_node(0, sim::FailureKind::kPowerOutage);
  const auto data = bytes_of("x");
  try {
    c.remote_write(0, 1, 0, data);
    FAIL() << "expected NodeCrashed";
  } catch (const sim::NodeCrashed& e) {
    EXPECT_EQ(e.node_id(), 0u);
    EXPECT_EQ(e.kind(), sim::FailureKind::kPowerOutage);
  }
}

TEST_F(ClusterTest, PowerSupplyFailureCrashesAllAttachedNodes) {
  Cluster c(profile_, 3);
  c.attach_power(1, 0);
  c.attach_power(2, 0);
  c.fail_power_supply(0);
  EXPECT_TRUE(c.node(0).crashed());
  EXPECT_TRUE(c.node(1).crashed());
  EXPECT_TRUE(c.node(2).crashed());
  EXPECT_EQ(c.node(0).last_failure(), sim::FailureKind::kPowerOutage);
}

TEST_F(ClusterTest, IndependentSuppliesIsolateFailures) {
  Cluster c(profile_, 2);  // per-node supplies
  c.fail_power_supply(c.node(0).power_supply());
  EXPECT_TRUE(c.node(0).crashed());
  EXPECT_FALSE(c.node(1).crashed());
}

TEST_F(ClusterTest, RestartRequiresPower) {
  Cluster c(profile_, 2);
  const auto supply = c.node(0).power_supply();
  c.fail_power_supply(supply);
  EXPECT_THROW(c.restart_node(0), std::logic_error);
  c.restore_power_supply(supply);
  EXPECT_NO_THROW(c.restart_node(0));
  EXPECT_FALSE(c.node(0).crashed());
}

TEST_F(ClusterTest, HangDelaysButDoesNotFail) {
  Cluster c(profile_, 2);
  auto before = c.node(1).mem(0, 4);
  std::memcpy(before.data(), "keep", 4);
  c.hang_node(1, sim::ms(50));
  const auto t0 = c.clock().now();
  std::vector<std::byte> out(4);
  c.remote_read(0, 1, 0, out);  // stalls until the hang ends, then works
  EXPECT_GE(c.clock().now() - t0, sim::ms(50));
  EXPECT_EQ(std::memcmp(out.data(), "keep", 4), 0);
}

TEST_F(ClusterTest, OptimizedWritesSendOnlyFullPackets) {
  Cluster c(profile_, 2);
  const std::vector<std::byte> data(100);
  c.remote_write(0, 1, 4, data, StreamHint::kNewBurst, /*optimized=*/true);
  EXPECT_EQ(c.stats().partial_packets, 0u);
  EXPECT_GT(c.stats().full_packets, 0u);
}

TEST_F(ClusterTest, SmallWritesBypassTheAlignedPathEvenWhenOptimized) {
  Cluster c(profile_, 2);
  const std::vector<std::byte> data(8);
  c.remote_write(0, 1, 4, data, StreamHint::kNewBurst, /*optimized=*/true);
  EXPECT_GT(c.stats().partial_packets, 0u);
}

TEST_F(ClusterTest, LocalMemcpyChargesByBandwidth) {
  Cluster c(profile_, 1);
  const auto t0 = c.clock().now();
  c.charge_local_memcpy(0, 75);  // 75 bytes at 75 MB/s = 1 us + fixed
  const auto cost = c.clock().now() - t0;
  EXPECT_EQ(cost, sim::us(1.0) + profile_.memory.memcpy_fixed);
}

TEST_F(ClusterTest, ChargeCpuRequiresLiveNode) {
  Cluster c(profile_, 1);
  c.charge_cpu(0, sim::us(5));
  c.crash_node(0);
  EXPECT_THROW(c.charge_cpu(0, sim::us(5)), sim::NodeCrashed);
}

TEST_F(ClusterTest, StatsResetWorks) {
  Cluster c(profile_, 2);
  c.control_rpc(0, 1);
  EXPECT_EQ(c.stats().control_rpcs, 1u);
  c.reset_stats();
  EXPECT_EQ(c.stats().control_rpcs, 0u);
}

// Traffic counters are booked per thread and summed on read: four threads
// writing at once lose no write, and reset_stats() clears every thread's
// share.
TEST_F(ClusterTest, ThreadsBookTrafficIntoMergedStats) {
  Cluster c(profile_, 2);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWrites = 1'000;
  const auto data = bytes_of("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &data, t] {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        c.remote_write(0, 1, static_cast<std::uint64_t>(t) * 4096, data);
        c.charge_local_memcpy(0, 8);
      }
    });
  }
  for (auto& th : threads) th.join();
  const NetworkStats s = c.stats();
  EXPECT_EQ(s.remote_writes, kThreads * kWrites);
  EXPECT_EQ(s.remote_write_bytes, kThreads * kWrites * data.size());
  EXPECT_EQ(s.full_packets, kThreads * kWrites);
  EXPECT_EQ(s.local_memcpys, kThreads * kWrites);
  EXPECT_EQ(s.local_memcpy_bytes, kThreads * kWrites * 8);
  c.reset_stats();
  EXPECT_EQ(c.stats().remote_writes, 0u);
  EXPECT_EQ(c.stats().local_memcpys, 0u);
}

}  // namespace
}  // namespace perseas::netram

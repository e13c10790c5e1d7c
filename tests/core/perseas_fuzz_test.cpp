// Randomized crash-recovery fuzzing: run random transactions against a
// reference model, crash the primary at a randomly chosen protocol point
// every few transactions, recover, and demand that the database equals the
// reference at the last commit/abort boundary (transaction atomicity under
// arbitrary failure timing).  Also fuzzes corrupted remote undo bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/failure_points.hpp"
#include "core/perseas.hpp"
#include "sim/crc32.hpp"
#include "sim/random.hpp"

namespace perseas::core {
namespace {

constexpr points::PointId kPoints[] = {
    "perseas.set_range.after_local_undo", "perseas.set_range.after_remote_undo",
    "perseas.commit.after_flag_set",      "perseas.commit.after_range_copy",
    "perseas.commit.before_flag_clear",
};

class PerseasFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerseasFuzz, CrashAnywhereRecoverAnywhere) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  constexpr std::uint64_t kSize = 1024;

  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 4);
  netram::RemoteMemoryServer server(cluster, 1);
  PerseasConfig config;
  config.undo_capacity = 512;  // small, so growth happens under fire too
  auto db = std::make_unique<Perseas>(cluster, 0, std::vector{&server}, config);
  (void)db->persistent_malloc(kSize);
  db->init_remote_db();
  netram::NodeId home = 0;

  std::vector<std::byte> reference(kSize, std::byte{0});

  for (int round = 0; round < 60; ++round) {
    // Arm a crash at a random point after a random number of hits.
    const bool crash_this_round = rng.chance(0.4);
    if (crash_this_round) {
      const points::PointId point = kPoints[rng.below(std::size(kPoints))];
      cluster.failures().arm(point, rng.below(4), [&cluster, home] {
        cluster.crash_node(home, sim::FailureKind::kSoftwareCrash);
        throw sim::NodeCrashed(home, sim::FailureKind::kSoftwareCrash, "fuzz");
      });
    }

    bool crashed = false;
    for (int t = 0; t < 3 && !crashed; ++t) {
      std::vector<std::byte> shadow = reference;
      try {
        auto rec = db->record(0);
        auto txn = db->begin_transaction();
        const int ranges = static_cast<int>(rng.between(1, 4));
        for (int r = 0; r < ranges; ++r) {
          const std::uint64_t size = 1 + rng.below(96);
          const std::uint64_t offset = rng.below(kSize - size + 1);
          txn.set_range(rec, offset, size);
          for (std::uint64_t i = 0; i < size; ++i) {
            shadow[offset + i] = static_cast<std::byte>(rng.next());
          }
          std::memcpy(rec.bytes().data() + offset, shadow.data() + offset, size);
        }
        if (rng.chance(0.2)) {
          txn.abort();
        } else {
          txn.commit();
          reference = std::move(shadow);
        }
      } catch (const sim::NodeCrashed&) {
        crashed = true;
      }
    }
    // clear() keeps hit counts; safe here because arm() countdowns are
    // relative to the count at arming time (reset() would also work).
    cluster.failures().clear();

    if (crashed) {
      // Recover on a random workstation (restart the dead one first if it
      // was chosen).
      const netram::NodeId target = rng.chance(0.5) ? home : (rng.chance(0.5) ? 2u : 3u);
      if (cluster.node(target).crashed()) cluster.restart_node(target);
      if (target == server.host()) continue;  // not a valid home
      db = std::make_unique<Perseas>(Perseas::RecoverTag{}, cluster, target,
                                     std::vector<netram::RemoteMemoryServer*>{&server}, config);
      home = target;
    }

    auto now = db->record(0).bytes();
    ASSERT_EQ(std::memcmp(now.data(), reference.data(), kSize), 0)
        << "divergence after round " << round << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerseasFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(PerseasCorruptionFuzz, FlippedUndoBytesNeverCorruptSilently) {
  // Corrupt random bytes of the remote undo log while a commit is in
  // flight; recovery must either succeed with the correct (pre-transaction)
  // image or refuse loudly — never return wrong data.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed * 1000003);
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
    netram::RemoteMemoryServer server(cluster, 1);
    Perseas db(cluster, 0, {&server}, {});
    auto rec = db.persistent_malloc(512);
    db.init_remote_db();
    {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 32);
      std::memset(rec.bytes().data(), 0x42, 32);
      txn.commit();
    }
    cluster.failures().arm("perseas.commit.after_range_copy", [&] {
      cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
      throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "fuzz");
    });
    try {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 32);
      std::memset(rec.bytes().data(), 0x66, 32);
      txn.commit();
      FAIL();
    } catch (const sim::NodeCrashed&) {
    }

    // Scribble over the mirror's undo segment (simulated memory fault).
    netram::RemoteMemoryClient vandal(cluster, 2);
    const auto undo = vandal.sci_connect_segment(server, undo_key(0));
    ASSERT_TRUE(undo);
    const std::uint64_t victim = rng.below(80);  // somewhere in the entry
    std::byte garbage[1] = {static_cast<std::byte>(rng.next() | 1)};
    std::vector<std::byte> current(1);
    vandal.sci_memcpy_read(*undo, victim, current);
    garbage[0] = current[0] ^ std::byte{0x5A};
    vandal.sci_memcpy_write(*undo, victim, garbage);

    try {
      auto recovered = Perseas::recover(cluster, 2, {&server});
      // If recovery succeeded, the data must be EXACTLY the committed image
      // (the corruption hit padding or was caught as a clean log end).
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(recovered.record(0).bytes()[i], std::byte{0x42})
            << "seed " << seed << " byte " << i;
      }
    } catch (const RecoveryError&) {
      // Loud refusal is acceptable: the checksum caught the corruption.
    }
  }
}

}  // namespace
}  // namespace perseas::core

// obs::FlightRecorder: the bounded ring (wraparound and the exact-capacity
// edge), the golden narrative rendering, the string table (registry rows,
// then interned strings), and the binary blackbox dump note_anomaly()
// auto-writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/event_registry.hpp"
#include "core/failure_points.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {
namespace {

using core::EventKind;
using core::points::PointId;

TEST(FlightRecorder, GoldenNarrative) {
  sim::SimClock clock;
  FlightRecorder fr(clock);
  fr.record(EventKind::kTxnBegin, 7, 1);
  clock.advance(150);
  // A fault.point's $point word is the point's registry index, as the
  // cluster's injector observer records it.
  fr.record(EventKind::kFailurePoint, 0, PointId("perseas.commit.before_flag_clear").index(), 3);
  clock.advance(50);
  fr.record(EventKind::kSetRange, 7, 2, 128, 64);
  const std::vector<std::string> expected = {
      "@0ns txn=7 txn.begin open_txns=1",
      "@150ns - fault.point point=perseas.commit.before_flag_clear hits=3",
      "@200ns txn=7 txn.set_range record=2 offset=128 size=64",
  };
  EXPECT_EQ(fr.narrative(), expected);
  // The last-n view keeps oldest-first order.
  EXPECT_EQ(fr.narrative(2), std::vector<std::string>(expected.begin() + 1, expected.end()));
}

TEST(FlightRecorder, ExactCapacityEdgeThenWrap) {
  sim::SimClock clock;
  FlightRecorder fr(clock, 8);
  for (std::uint64_t i = 0; i < 8; ++i) fr.record(EventKind::kTxnBegin, 1, i);
  // Exactly full: nothing dropped yet, all eight retained in order.
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.recorded(), 8u);
  EXPECT_EQ(fr.dropped(), 0u);
  auto all = fr.events();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().a, 0u);
  EXPECT_EQ(all.back().a, 7u);

  // One more overwrites exactly the oldest.
  fr.record(EventKind::kTxnBegin, 1, 8);
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.dropped(), 1u);
  EXPECT_EQ(fr.events().front().a, 1u);
  EXPECT_EQ(fr.events().back().a, 8u);

  // Deep wrap: only the last `capacity` survive, seq stays monotonic.
  for (std::uint64_t i = 9; i < 100; ++i) fr.record(EventKind::kTxnBegin, 1, i);
  EXPECT_EQ(fr.recorded(), 100u);
  EXPECT_EQ(fr.dropped(), 92u);
  all = fr.events();
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].a, 92 + i);
    if (i > 0) {
      EXPECT_EQ(all[i].seq, all[i - 1].seq + 1);
    }
  }
}

TEST(FlightRecorder, DisabledRecorderIsFrozen) {
  sim::SimClock clock;
  FlightRecorder fr(clock, 8);
  fr.record(EventKind::kTxnBegin, 1);
  fr.set_enabled(false);
  EXPECT_FALSE(fr.enabled());
  fr.record(EventKind::kTxnCommitted, 1);
  EXPECT_EQ(fr.recorded(), 1u);
  fr.set_enabled(true);
  fr.record(EventKind::kTxnCommitted, 1);
  EXPECT_EQ(fr.recorded(), 2u);
}

// Ids below the registry size are registry rows; interned strings get the
// ids above it, shared by repeats.
TEST(FlightRecorder, InternSharesIds) {
  sim::SimClock clock;
  FlightRecorder fr(clock);
  const auto a = fr.intern("connect");
  const auto b = fr.intern("checksum mismatch");
  EXPECT_EQ(fr.intern("connect"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, core::points::kFailurePointCount);
  EXPECT_EQ(fr.interned(a), "connect");
  EXPECT_EQ(fr.interned(PointId("rvm.force.after_body").index()), "rvm.force.after_body");
  EXPECT_EQ(fr.interned(999999), "?");
}

TEST(FlightRecorder, DumpWritesMagicAndThrowsOnBadPath) {
  sim::SimClock clock;
  FlightRecorder fr(clock);
  fr.record(EventKind::kTxnBegin, 1);
  const std::string path =
      ::testing::TempDir() + "/flight_recorder_test_dump.bin";
  fr.dump(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  char magic[8] = {};
  in.read(magic, 8);
  EXPECT_EQ(std::string(magic, 8), "PSEASFR1");
  std::remove(path.c_str());
  // Parent directories are not created; the error carries the path.
  EXPECT_THROW(fr.dump("/nonexistent-perseas-dir/dump.bin"), std::runtime_error);
}

TEST(FlightRecorder, NoteAnomalyRecordsAndAutoDumps) {
  sim::SimClock clock;
  FlightRecorder fr(clock);
  const std::string path =
      ::testing::TempDir() + "/flight_recorder_test_anomaly.bin";
  std::remove(path.c_str());
  fr.set_dump_path(path);
  EXPECT_EQ(fr.dump_path(), path);
  fr.note_anomaly("checksum mismatch in undo entry 3");
  const auto lines = fr.narrative();
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(),
            "@0ns - fault.anomaly what=checksum mismatch in undo entry 3");
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "note_anomaly must auto-dump to the configured path";
  std::remove(path.c_str());
}

// Four threads stage events while a fifth reads and dumps the recorder:
// no event is lost, each thread's events keep their order in the merged
// ring, and seq numbers the merged order.
TEST(FlightRecorder, ThreadsStageWhileAReaderDrains) {
  sim::SimClock clock;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1'000;
  FlightRecorder rec(clock, kThreads * kPerThread);
  const std::string path = ::testing::TempDir() + "flight_threads.bin";
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      (void)rec.events(16);
      rec.dump(path);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record(EventKind::kSetRange, static_cast<std::uint64_t>(t) + 1, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  std::remove(path.c_str());

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<std::uint64_t> next(kThreads + 1, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    ASSERT_GE(events[i].txn, 1u);
    ASSERT_LE(events[i].txn, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(events[i].a, next[events[i].txn]++) << "thread " << events[i].txn << " out of order";
  }
}

}  // namespace
}  // namespace perseas::obs

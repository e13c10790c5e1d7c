// obs::FlightRecorder — the always-on blackbox.
//
// A bounded binary ring buffer of protocol events (kinds registered in
// core/event_registry.hpp): txn lifecycle, set_range + coalesce
// decisions, undo push/grow/truncate, SCI bursts, flag set/clear,
// conflict losses, every sim::FailureInjector firing, and each recovery
// step.  Unlike the tracer and metrics it is not opt-in: the cluster owns
// one by value and every engine's events land in it, because the flights
// that crash are never the ones with the instrumentation flag set.
//
// Recording takes no shared lock.  Each recording thread stages its events
// in its own small block (sync::ThreadShards) and moves the block into the
// ring under the recorder's mutex when it fills; every read (events,
// narrative, dump, the counters) first moves every thread's staged events
// in, so it sees everything recorded before it was called, from any
// thread, without racing the recorders.  An event's seq is its position in
// the ring's merged order, assigned as it moves in: one thread's events
// keep their order and their numbers, so a single-threaded run is
// byte-identical to one that wrote the ring directly, and threads
// interleave in blocks.  The staging costs kStageEvents events per thread
// that has recorded, reused by later threads (see thread_shards.hpp).
//
// Recording obeys the repo's observability contract: it charges zero
// simulated time and generates zero simulated traffic (it only *reads*
// the sim clock), so recorder-off and recorder-on runs are cost-identical
// bit-for-bit — tests/obs/obs_overhead_test.cpp enforces this for every
// engine.  Overwriting old events on wrap keeps the memory bound fixed;
// `dropped()` counts what fell off the back.
//
// On an anomaly (a thrown errors.hpp error, an mc violation, a failed
// recovery check) call note_anomaly(): it records a fault.anomaly event
// and, when a dump path is configured (PERSEAS_BLACKBOX=<path> via the
// cluster), writes the last-N events as a self-contained binary dump that
// tools/perseas-blackbox.py renders into a human-readable narrative.
// The dump embeds the event-kind table and one string table (the
// failure-point registry's names, then the interned strings), so the
// renderer needs no access to the source tree (it works on a bare CI
// artifact).  perseas::mc attaches narrative() to every minimized
// counterexample it reports.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_registry.hpp"
#include "core/sync.hpp"
#include "core/thread_shards.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

/// One recorded event: a fixed-size row so the ring is a flat array.
/// Payload words a/b/c are labelled by the kind's registry row; a label
/// starting with '$' marks the word as an interned-string id.
struct FlightEvent {
  std::uint64_t seq = 0;      ///< monotonic, never wraps
  sim::SimTime ts = 0;        ///< simulated ns at record time
  core::EventKind kind{};
  std::uint64_t txn = 0;      ///< 0 = not transaction-scoped
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// Events a thread stages before it moves them into the ring.
  static constexpr std::uint32_t kStageEvents = 64;

  /// `clock` must outlive the recorder; it is only read, never advanced.
  explicit FlightRecorder(const sim::SimClock& clock,
                          std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event (overwriting the oldest when full) through the
  /// calling thread's stage.  No-op while disabled.  Charges no simulated
  /// time.
  void record(core::EventKind kind, std::uint64_t txn = 0, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) noexcept;

  /// Interns `s` and returns its id for use as a '$'-labelled payload
  /// word.  Repeated strings share one id; the table is part of the dump.
  /// Ids below core::points::kFailurePointCount are the failure-point
  /// registry's rows (a fault.point event stores PointId::index()), so
  /// interned ids start above them.
  [[nodiscard]] std::uint64_t intern(std::string_view s);

  /// The string for `id`: a registry point name or an interned string
  /// ("?" when out of range).
  [[nodiscard]] std::string interned(std::uint64_t id) const;

  /// The recorder is on by default; set_enabled(false) freezes it (for
  /// the cost-identity tests — disabling must not change any simulated
  /// observable either).
  void set_enabled(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded (monotonic, survives wraps).
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  /// Events lost to ring wraparound: recorded() - size().
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// Events currently held: min(recorded(), capacity()).
  [[nodiscard]] std::size_t size() const noexcept;

  /// The last `n` events, oldest-first (all retained events when n == 0
  /// or n >= size()).
  [[nodiscard]] std::vector<FlightEvent> events(std::size_t n = 0) const;

  /// The last `n` events rendered one line each, oldest-first:
  ///   "@<ts>ns txn=<id> <kind.name> <label>=<value> ..."
  /// '$'-labelled words are resolved through the string table.  This is
  /// the timeline perseas::mc embeds in counterexample reports.
  [[nodiscard]] std::vector<std::string> narrative(std::size_t n = 0) const;

  /// Writes the self-contained binary blackbox dump (magic "PSEASFR1",
  /// kind table, string table, retained events) through obs::write_file,
  /// which throws std::runtime_error on any I/O failure.
  void dump(const std::string& path) const;

  /// Where note_anomaly() auto-dumps; empty (the default) disables
  /// auto-dumping.  The cluster wires PERSEAS_BLACKBOX=<path> here.
  void set_dump_path(std::string path);
  [[nodiscard]] std::string dump_path() const;

  /// Records a fault.anomaly event carrying `what` and, when a dump path
  /// is set, writes the dump (best-effort: called on throw paths, so dump
  /// failures are swallowed).
  void note_anomaly(std::string_view what) noexcept;

 private:
  /// One thread's staged events.  The owner writes events[count] and then
  /// publishes it by storing count + 1 (release); a reader, under mu_,
  /// moves [taken, count) into the ring and advances taken.  The owner
  /// resets both under mu_ once its block is full.  taken is only touched
  /// under mu_ (an atomic because a nested struct cannot name mu_).
  struct Stage {
    std::array<FlightEvent, kStageEvents> events;
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint32_t> taken{0};
  };

  /// Appends the published, not yet taken events of `stage` to `out`.
  static void take_published(Stage& stage, std::vector<FlightEvent>& out);
  /// Moves every thread's published events into the ring.
  void drain_locked() const PERSEAS_REQUIRES(mu_);
  /// Numbers `e` and writes it into the ring.
  void push_locked(FlightEvent e) const PERSEAS_REQUIRES(mu_);
  [[nodiscard]] std::vector<FlightEvent> events_locked(std::size_t n) const
      PERSEAS_REQUIRES(mu_);
  void dump_locked(const std::string& path) const PERSEAS_REQUIRES(mu_);

  const sim::SimClock* clock_;
  const std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable sync::ThreadShards<Stage> stages_;
  mutable sync::Mutex mu_;
  // The ring is filled by reads as well as by recorders (drain_locked), so
  // its state is mutable.
  mutable std::vector<FlightEvent> ring_ PERSEAS_GUARDED_BY(mu_);
  mutable std::uint64_t recorded_ PERSEAS_GUARDED_BY(mu_) = 0;
  /// The slot the next event goes to: always recorded_ % capacity_, kept
  /// as a wrapping index so recording does no 64-bit division.
  mutable std::size_t head_ PERSEAS_GUARDED_BY(mu_) = 0;
  std::vector<std::string> strings_ PERSEAS_GUARDED_BY(mu_);
  std::string dump_path_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::obs

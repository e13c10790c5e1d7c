#include "obs/flight_recorder.hpp"

#include <string>

#include "core/failure_points.hpp"
#include "obs/output.hpp"

namespace perseas::obs {
namespace {

/// Little-endian field writers: the dump is parsed by struct.unpack in
/// tools/perseas-blackbox.py, so the byte layout is explicit rather than
/// whatever the host struct padding happens to be.
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

/// String id `id`: a failure point's registry row below
/// kFailurePointCount, an interned string above it, "?" past the end.
std::string_view string_at(const std::vector<std::string>& interned, std::uint64_t id) {
  if (id < core::points::kFailurePointCount) return core::points::kFailurePoints[id].name;
  id -= core::points::kFailurePointCount;
  return id < interned.size() ? std::string_view(interned[id]) : std::string_view("?");
}

/// One narrative line; tools/perseas-blackbox.py mirrors it exactly.
std::string render_flight_event(const FlightEvent& e, const std::vector<std::string>& interned) {
  const core::EventInfo* info = core::find_event(e.kind);
  std::string line = "@" + std::to_string(e.ts) + "ns ";
  line += (e.txn != 0) ? "txn=" + std::to_string(e.txn) : std::string("-");
  line += " ";
  line += (info != nullptr) ? info->name
                            : "kind#" + std::to_string(static_cast<unsigned>(e.kind));
  const char* labels[3] = {info ? info->a : "a", info ? info->b : "b", info ? info->c : "c"};
  const std::uint64_t words[3] = {e.a, e.b, e.c};
  for (int i = 0; i < 3; ++i) {
    std::string_view label = labels[i];
    if (label.empty()) continue;
    if (label.front() == '$') {
      label.remove_prefix(1);
      line += " " + std::string(label) + "=" + std::string(string_at(interned, words[i]));
    } else {
      line += " " + std::string(label) + "=" + std::to_string(words[i]);
    }
  }
  return line;
}

}  // namespace

FlightRecorder::FlightRecorder(const sim::SimClock& clock, std::size_t capacity)
    : clock_(&clock), capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(core::EventKind kind, std::uint64_t txn, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Stage& stage = stages_.local();
  const std::uint32_t n = stage.count.load(std::memory_order_relaxed);
  stage.events[n] = FlightEvent{0, clock_->now(), kind, txn, a, b, c};
  stage.count.store(n + 1, std::memory_order_release);
  if (n + 1 < kStageEvents) return;
  // The block is full: move what no reader took yet into the ring and
  // start the block over.
  sync::LockGuard lock(mu_);
  for (std::uint32_t i = stage.taken.load(std::memory_order_relaxed); i < kStageEvents; ++i) {
    push_locked(stage.events[i]);
  }
  stage.taken.store(0, std::memory_order_relaxed);
  stage.count.store(0, std::memory_order_relaxed);
}

void FlightRecorder::take_published(Stage& stage, std::vector<FlightEvent>& out) {
  const std::uint32_t n = stage.count.load(std::memory_order_acquire);
  const std::uint32_t first = stage.taken.load(std::memory_order_relaxed);
  out.insert(out.end(), stage.events.begin() + first, stage.events.begin() + n);
  stage.taken.store(n, std::memory_order_relaxed);
}

void FlightRecorder::drain_locked() const {
  std::vector<FlightEvent> staged;
  stages_.for_each([&staged](Stage& stage) { take_published(stage, staged); });
  for (const FlightEvent& e : staged) push_locked(e);
}

void FlightRecorder::push_locked(FlightEvent e) const {
  e.seq = recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
  }
  ++recorded_;
  if (++head_ == capacity_) head_ = 0;
}

std::uint64_t FlightRecorder::intern(std::string_view s) {
  sync::LockGuard lock(mu_);
  std::size_t i = 0;
  while (i < strings_.size() && strings_[i] != s) ++i;
  if (i == strings_.size()) strings_.emplace_back(s);
  return core::points::kFailurePointCount + i;
}

std::string FlightRecorder::interned(std::uint64_t id) const {
  sync::LockGuard lock(mu_);
  return std::string(string_at(strings_, id));
}

void FlightRecorder::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

std::uint64_t FlightRecorder::recorded() const noexcept {
  sync::LockGuard lock(mu_);
  drain_locked();
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  sync::LockGuard lock(mu_);
  drain_locked();
  return recorded_ - ring_.size();
}

std::size_t FlightRecorder::size() const noexcept {
  sync::LockGuard lock(mu_);
  drain_locked();
  return ring_.size();
}

std::vector<FlightEvent> FlightRecorder::events_locked(std::size_t n) const {
  drain_locked();
  const std::size_t held = ring_.size();
  const std::size_t want = (n == 0 || n > held) ? held : n;
  std::vector<FlightEvent> out;
  out.reserve(want);
  // The oldest retained event sits at head_ once the ring has wrapped;
  // before that the ring is a plain prefix array.
  const std::size_t first = (held < capacity_) ? 0 : head_;
  for (std::size_t i = held - want; i < held; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events(std::size_t n) const {
  sync::LockGuard lock(mu_);
  return events_locked(n);
}

std::vector<std::string> FlightRecorder::narrative(std::size_t n) const {
  sync::LockGuard lock(mu_);
  std::vector<std::string> out;
  for (const FlightEvent& e : events_locked(n)) {
    out.push_back(render_flight_event(e, strings_));
  }
  return out;
}

void FlightRecorder::dump_locked(const std::string& path) const {
  drain_locked();
  std::string buf;
  buf.append("PSEASFR1", 8);
  put_u64(buf, recorded_);
  put_u64(buf, recorded_ - ring_.size());
  put_u32(buf, static_cast<std::uint32_t>(core::kEventRegistryCount));
  for (const core::EventInfo& info : core::kEventRegistry) {
    put_u16(buf, static_cast<std::uint16_t>(info.kind));
    put_str(buf, info.name);
    put_str(buf, info.category);
    put_str(buf, info.a);
    put_str(buf, info.b);
    put_str(buf, info.c);
  }
  // One string table, as the '$' words index it: registry rows, then the
  // interned strings.
  put_u32(buf, static_cast<std::uint32_t>(core::points::kFailurePointCount + strings_.size()));
  for (const core::points::FailurePoint& p : core::points::kFailurePoints) put_str(buf, p.name);
  for (const std::string& s : strings_) put_str(buf, s);
  const auto events = events_locked(0);
  put_u32(buf, static_cast<std::uint32_t>(events.size()));
  for (const FlightEvent& e : events) {
    put_u64(buf, e.seq);
    put_u64(buf, static_cast<std::uint64_t>(e.ts));
    put_u16(buf, static_cast<std::uint16_t>(e.kind));
    put_u64(buf, e.txn);
    put_u64(buf, e.a);
    put_u64(buf, e.b);
    put_u64(buf, e.c);
  }

  write_file("FlightRecorder::dump", path, buf);
}

void FlightRecorder::dump(const std::string& path) const {
  sync::LockGuard lock(mu_);
  dump_locked(path);
}

void FlightRecorder::set_dump_path(std::string path) {
  sync::LockGuard lock(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  sync::LockGuard lock(mu_);
  return dump_path_;
}

void FlightRecorder::note_anomaly(std::string_view what) noexcept {
  try {
    const std::uint64_t id = intern(what);
    record(core::EventKind::kAnomaly, 0, id);
    const std::string path = dump_path();
    if (!path.empty()) dump(path);
  } catch (...) {
    // Anomaly paths are already unwinding; the blackbox must never turn a
    // diagnosable failure into a crash of its own.
  }
}

}  // namespace perseas::obs

#include "obs/trace.hpp"

#include <cstdio>

#include "obs/json.hpp"
#include "obs/output.hpp"

namespace perseas::obs {

std::uint32_t TraceRecorder::register_track(std::string name) {
  sync::LockGuard lock(mu_);
  tracks_.push_back(std::move(name));
  return static_cast<std::uint32_t>(tracks_.size());
}

void TraceRecorder::complete(std::uint32_t track, std::uint32_t tid, std::string_view cat,
                             std::string_view name, std::uint64_t txn, sim::SimTime start,
                             sim::SimDuration dur) {
  TraceEvent e{track, tid, std::string(cat), std::string(name), txn, start, dur};
  sync::LockGuard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::clear() {
  sync::LockGuard lock(mu_);
  tracks_.clear();
  events_.clear();
}

namespace {

/// Chrome trace-event timestamps are microseconds; emit at ns resolution.
void append_us(std::string& out, sim::SimTime ns_value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", static_cast<long long>(ns_value / 1000),
                static_cast<long long>(ns_value % 1000));
  out += buf;
}

}  // namespace

std::string TraceRecorder::to_json() const {
  sync::LockGuard lock(mu_);
  std::string buf;
  buf += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) buf += ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    buf += "{\"ph\":\"M\",\"pid\":" + std::to_string(i + 1) +
           ",\"name\":\"process_name\",\"args\":{\"name\":" + Json::escape(tracks_[i]) + "}}";
  }
  for (const auto& e : events_) {
    sep();
    buf += "{\"ph\":\"X\",\"pid\":" + std::to_string(e.track) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"cat\":" + Json::escape(e.cat) +
           ",\"name\":" + Json::escape(e.name) + ",\"ts\":";
    append_us(buf, e.ts);
    buf += ",\"dur\":";
    append_us(buf, e.dur);
    buf += ",\"args\":{\"txn\":" + std::to_string(e.txn) + "}}";
  }
  buf += "\n]}\n";
  return buf;
}

void TraceRecorder::save(const std::string& path) const {
  write_file("TraceRecorder::save", path, to_json());
}

}  // namespace perseas::obs

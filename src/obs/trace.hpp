// Span tracing keyed to simulated time.
//
// TraceRecorder is a passive span store.  Its one producer is
// obs::ScopedCost: when a recorder is attached to a cluster
// (netram::Cluster::set_trace), every cost scope that closes appends one
// complete span — name = the scope's phase, category = its layer, lane =
// the worker that ran it — stamped with the SimTime the cost model
// charged.  The recorder serializes them as Chrome/Perfetto trace-event
// JSON.  Open the file at https://ui.perfetto.dev (or chrome://tracing) to
// see where inside one transaction the simulated microseconds went, with
// clusters/runs on separate process tracks and workers on separate lanes.
//
// Contract (mirrors check::TxnValidator): recording charges no simulated
// time and generates no simulated traffic, and with no recorder attached a
// scope pays only a null check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"
#include "sim/sim_time.hpp"

namespace perseas::obs {

/// One recorded span: [ts, ts + dur) of simulated time.
struct TraceEvent {
  std::uint32_t track = 0;  ///< Perfetto pid: one lane group per cluster/run
  std::uint32_t tid = 0;    ///< Perfetto tid: sim::current_worker_id() (0 = main)
  std::string cat;          ///< the scope's layer
  std::string name;         ///< the scope's phase
  std::uint64_t txn = 0;    ///< the scope's transaction (0 = not transaction-scoped)
  sim::SimTime ts = 0;      ///< ns of simulated time
  sim::SimDuration dur = 0; ///< ns
};

class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// Registers a named track (a Perfetto "process" lane group), e.g. one
  /// per cluster or per bench run.  Returns the track id to attach with.
  std::uint32_t register_track(std::string name);

  /// Records a completed span (obs::ScopedCost calls this as it closes).
  void complete(std::uint32_t track, std::uint32_t tid, std::string_view cat,
                std::string_view name, std::uint64_t txn, sim::SimTime start,
                sim::SimDuration dur);

  /// The recorded spans, in close order (children before their parent).
  /// Only for after-the-run readers (exporters, tests): the reference
  /// bypasses mu_, so reading it while instrumented code is still
  /// appending is a race by contract.
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    sync::LockGuard lock(mu_);
    return events_;
  }
  [[nodiscard]] std::size_t event_count() const noexcept {
    sync::LockGuard lock(mu_);
    return events_.size();
  }
  [[nodiscard]] std::size_t track_count() const noexcept {
    sync::LockGuard lock(mu_);
    return tracks_.size();
  }

  void clear();

  /// The whole trace as Chrome/Perfetto trace-event JSON
  /// ({"traceEvents": [...]}; ts/dur in microseconds).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path` ("-" = stdout) through obs::write_file,
  /// which throws std::runtime_error on any I/O failure.
  void save(const std::string& path) const;

 private:
  mutable sync::Mutex mu_;
  std::vector<std::string> tracks_ PERSEAS_GUARDED_BY(mu_);  // index + 1 == track id
  std::vector<TraceEvent> events_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::obs

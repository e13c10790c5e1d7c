// Magnetic-disk cost model (the baseline storage the paper gets rid of).
//
// Models a ~1997 commodity disk: per-request controller/driver overhead,
// seek (full average for random access, track-to-track for sequential
// appends), rotational latency, and media transfer.  Asynchronous writes go
// through a bounded write-behind buffer; when the buffer is full the caller
// stalls until the disk drains — which is precisely the effect that limits
// the remote-WAL baseline (Ioanidis et al.) to disk throughput under
// sustained load (paper section 2).
#pragma once

#include <cstdint>
#include <deque>

#include "sim/clock.hpp"
#include "sim/hardware_profile.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::disk {

struct DiskStats {
  std::uint64_t sync_writes = 0;
  std::uint64_t async_writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t async_stalls = 0;  // async writes that blocked on a full buffer
  sim::SimDuration busy_time = 0;  // total simulated disk-busy time
};

class DiskModel {
 public:
  DiskModel(sim::SimClock& clock, const sim::DiskParams& params,
            std::uint64_t write_buffer_bytes = 1ull << 20);

  /// Synchronous write of `bytes` at byte address `offset`: the caller's
  /// clock advances by queueing-behind-pending-work plus full service time.
  sim::SimDuration sync_write(std::uint64_t offset, std::uint64_t bytes);

  /// Asynchronous write: enqueue and return almost immediately, unless the
  /// write-behind buffer is full, in which case the caller stalls until
  /// enough pending work drains.
  sim::SimDuration async_write(std::uint64_t offset, std::uint64_t bytes);

  /// Synchronous read.
  sim::SimDuration read(std::uint64_t offset, std::uint64_t bytes);

  /// Blocks (advances the clock) until all pending async work is on media.
  sim::SimDuration flush();

  /// Bytes currently sitting in the write-behind buffer.
  [[nodiscard]] std::uint64_t pending_bytes();

  [[nodiscard]] const DiskStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const sim::DiskParams& params() const noexcept { return params_; }

  /// Folds DiskStats into `reg` as disk_* metrics (once per disk per
  /// registry, at dump time).
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  /// Media service time for one request, given head position heuristics.
  sim::SimDuration service_time(std::uint64_t offset, std::uint64_t bytes);

  /// Drops completed entries from the pending queue.
  void drain_completed();

  sim::SimClock* clock_;
  sim::DiskParams params_;
  std::uint64_t write_buffer_bytes_;

  struct Pending {
    sim::SimTime done_at;
    std::uint64_t bytes;
  };
  std::deque<Pending> pending_;
  sim::SimTime busy_until_ = 0;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t last_end_offset_ = UINT64_MAX;  // head position heuristic
  DiskStats stats_;
};

}  // namespace perseas::disk

#include "disk/disk_model.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace perseas::disk {

DiskModel::DiskModel(sim::SimClock& clock, const sim::DiskParams& params,
                     std::uint64_t write_buffer_bytes)
    : clock_(&clock), params_(params), write_buffer_bytes_(write_buffer_bytes) {}

sim::SimDuration DiskModel::service_time(std::uint64_t offset, std::uint64_t bytes) {
  const bool sequential = offset == last_end_offset_;
  double fixed_ms = params_.request_overhead_ms;
  if (sequential) {
    // Log-style append: mostly the same or the adjacent track, but a
    // synchronous append has just missed the sector it wrote, so it waits
    // most of a rotation on average.
    fixed_ms += params_.track_switch_ms + 0.75 * params_.full_rotation_ms();
  } else {
    fixed_ms += params_.avg_seek_ms + params_.avg_rotational_ms();
  }
  last_end_offset_ = offset + bytes;
  return sim::ms(fixed_ms) + sim::transfer_time(bytes, params_.transfer_bytes_per_sec);
}

void DiskModel::drain_completed() {
  const sim::SimTime now = clock_->now();
  while (!pending_.empty() && pending_.front().done_at <= now) {
    pending_bytes_ -= pending_.front().bytes;
    pending_.pop_front();
  }
}

sim::SimDuration DiskModel::sync_write(std::uint64_t offset, std::uint64_t bytes) {
  const sim::SimTime start = clock_->now();
  // Queue behind any pending asynchronous work.
  if (busy_until_ > clock_->now()) clock_->advance(busy_until_ - clock_->now());
  drain_completed();
  const sim::SimDuration svc = service_time(offset, bytes);
  clock_->advance(svc);
  busy_until_ = clock_->now();
  ++stats_.sync_writes;
  stats_.bytes_written += bytes;
  stats_.busy_time += svc;
  return clock_->now() - start;
}

sim::SimDuration DiskModel::async_write(std::uint64_t offset, std::uint64_t bytes) {
  const sim::SimTime start = clock_->now();
  drain_completed();
  // Stall until the write-behind buffer has room: this is the point where
  // "asynchronous" writes become synchronous under sustained load.
  while (pending_bytes_ + bytes > write_buffer_bytes_ && !pending_.empty()) {
    ++stats_.async_stalls;
    clock_->advance(std::max<sim::SimDuration>(1, pending_.front().done_at - clock_->now()));
    drain_completed();
  }
  const sim::SimDuration svc = service_time(offset, bytes);
  const sim::SimTime begin_service = std::max(busy_until_, clock_->now());
  busy_until_ = begin_service + svc;
  pending_.push_back(Pending{busy_until_, bytes});
  pending_bytes_ += bytes;
  // The enqueue itself costs a driver call.
  clock_->advance(sim::us(20.0));
  ++stats_.async_writes;
  stats_.bytes_written += bytes;
  stats_.busy_time += svc;
  return clock_->now() - start;
}

sim::SimDuration DiskModel::read(std::uint64_t offset, std::uint64_t bytes) {
  const sim::SimTime start = clock_->now();
  if (busy_until_ > clock_->now()) clock_->advance(busy_until_ - clock_->now());
  drain_completed();
  const sim::SimDuration svc = service_time(offset, bytes);
  clock_->advance(svc);
  busy_until_ = clock_->now();
  ++stats_.reads;
  stats_.bytes_read += bytes;
  stats_.busy_time += svc;
  return clock_->now() - start;
}

sim::SimDuration DiskModel::flush() {
  const sim::SimTime start = clock_->now();
  if (busy_until_ > clock_->now()) clock_->advance(busy_until_ - clock_->now());
  drain_completed();
  return clock_->now() - start;
}

std::uint64_t DiskModel::pending_bytes() {
  drain_completed();
  return pending_bytes_;
}

void DiskModel::export_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("disk_requests_total", "Disk requests by kind", "kind=\"sync_write\"")
      .add(stats_.sync_writes);
  reg.counter("disk_requests_total", "Disk requests by kind", "kind=\"async_write\"")
      .add(stats_.async_writes);
  reg.counter("disk_requests_total", "Disk requests by kind", "kind=\"read\"")
      .add(stats_.reads);
  reg.counter("disk_bytes_total", "Bytes through the disk", "direction=\"write\"")
      .add(stats_.bytes_written);
  reg.counter("disk_bytes_total", "Bytes through the disk", "direction=\"read\"")
      .add(stats_.bytes_read);
  reg.counter("disk_async_stalls_total", "Async writes that blocked on a full buffer")
      .add(stats_.async_stalls);
  reg.counter("disk_busy_ns_total", "Total simulated disk-busy time")
      .add(static_cast<std::uint64_t>(stats_.busy_time));
}

}  // namespace perseas::disk

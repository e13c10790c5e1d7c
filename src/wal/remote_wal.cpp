#include "wal/remote_wal.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace perseas::wal {

namespace {
/// Zeroed sentinel stamped after the newest record so a recovery scan never
/// walks into stale records from a previous pass over the circular log.
constexpr std::uint64_t kSentinelBytes = sizeof(RecordHeader);
}  // namespace

RemoteWal::RemoteWal(netram::Cluster& cluster, netram::NodeId local,
                     netram::RemoteMemoryServer& log_mirror, disk::DiskModel& disk,
                     const RemoteWalOptions& options)
    : cluster_(&cluster),
      local_(local),
      client_(cluster, local),
      log_server_(&log_mirror),
      disk_(&disk),
      options_(options),
      db_(options.db_size) {
  if (log_mirror.host() == local) {
    throw std::invalid_argument("RemoteWal: the log mirror must be a different node");
  }
  log_segment_ = client_.sci_get_new_segment(log_mirror, options_.log_capacity, "rwal.log");
  const std::byte zeros[kSentinelBytes] = {};
  client_.sci_memcpy_write(log_segment_, 0, zeros);
}

void RemoteWal::begin_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_ + 1, "begin", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_begin);
  if (in_txn_) throw std::logic_error("RemoteWal: transaction already active");
  in_txn_ = true;
  ++txn_counter_;
  undo_.clear();
}

void RemoteWal::set_range(std::uint64_t offset, std::uint64_t size) {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "set_range", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_set_range);
  if (!in_txn_) throw std::logic_error("RemoteWal: set_range outside a transaction");
  if (offset + size > db_.size() || offset + size < offset) {
    throw std::out_of_range("RemoteWal: set_range outside the database");
  }
  UndoEntry e;
  e.offset = offset;
  e.before.assign(db_.begin() + static_cast<std::ptrdiff_t>(offset),
                  db_.begin() + static_cast<std::ptrdiff_t>(offset + size));
  cluster_->charge_local_memcpy(local_, size);
  undo_.push_back(std::move(e));
}

void RemoteWal::commit_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "commit", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_commit);
  if (!in_txn_) throw std::logic_error("RemoteWal: commit outside a transaction");

  std::vector<LogRange> ranges;
  ranges.reserve(undo_.size());
  std::uint64_t bytes = 0;
  for (const auto& u : undo_) {
    LogRange r;
    r.offset = u.offset;
    r.data.assign(db_.begin() + static_cast<std::ptrdiff_t>(u.offset),
                  db_.begin() + static_cast<std::ptrdiff_t>(u.offset + u.before.size()));
    bytes += r.data.size();
    ranges.push_back(std::move(r));
  }
  cluster_->charge_local_memcpy(local_, bytes);

  std::vector<std::byte> record;
  const std::uint64_t record_bytes = append_record(record, txn_counter_, ranges);
  stats_.bytes_logged += record_bytes;

  const auto threshold = static_cast<std::uint64_t>(
      options_.truncate_fraction * static_cast<double>(options_.log_capacity));
  if (log_used_ + record_bytes + kSentinelBytes > threshold) truncate();
  if (log_used_ + record_bytes + kSentinelBytes > options_.log_capacity) {
    throw std::runtime_error("RemoteWal: transaction larger than the whole log");
  }

  // The durability point: a synchronous remote-memory write of the record,
  // followed by a fresh sentinel.
  client_.sci_memcpy_write(log_segment_, log_used_, record);
  log_used_ += record_bytes;
  const std::byte zeros[kSentinelBytes] = {};
  client_.sci_memcpy_write(log_segment_, log_used_, zeros, netram::StreamHint::kContinuation);

  // Lazily stream the same bytes to the on-disk log.  This is where the
  // baseline's throughput cap lives: once the write-behind buffer is full,
  // these "asynchronous" writes stall at disk speed.
  disk_chunk_.insert(disk_chunk_.end(), record.begin(), record.end());
  if (disk_chunk_.size() >= options_.disk_chunk_bytes) {
    disk_->async_write(disk_log_offset_, disk_chunk_.size());
    disk_log_offset_ += disk_chunk_.size();
    disk_chunk_.clear();
    ++stats_.disk_chunks;
  }

  undo_.clear();
  in_txn_ = false;
  ++stats_.commits;
}

void RemoteWal::truncate() {
  const obs::ScopedCost scope(cluster_->sinks(), 0, "truncate", "wal", "log");
  if (!disk_chunk_.empty()) {
    disk_->async_write(disk_log_offset_, disk_chunk_.size());
    disk_log_offset_ += disk_chunk_.size();
    disk_chunk_.clear();
    ++stats_.disk_chunks;
  }
  // Checkpoint the database image to disk so the on-disk log can be
  // reclaimed, then reset the in-memory log replica.
  disk_->async_write(disk_log_offset_, db_.size());
  disk_log_offset_ += db_.size();
  const std::byte zeros[kSentinelBytes] = {};
  client_.sci_memcpy_write(log_segment_, 0, zeros);
  log_used_ = 0;
  ++stats_.truncations;
}

void RemoteWal::abort_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "abort", "wal", "local");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_abort);
  if (!in_txn_) throw std::logic_error("RemoteWal: abort outside a transaction");
  std::uint64_t bytes = 0;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::memcpy(db_.data() + it->offset, it->before.data(), it->before.size());
    bytes += it->before.size();
  }
  cluster_->charge_local_memcpy(local_, bytes);
  undo_.clear();
  in_txn_ = false;
  ++stats_.aborts;
}

std::uint64_t RemoteWal::recover() {
  const obs::ScopedCost scope(cluster_->sinks(), 0, "recover", "wal", "cpu");
  in_txn_ = false;
  undo_.clear();
  std::vector<std::byte> log(options_.log_capacity);
  client_.sci_memcpy_read(log_segment_, 0, log);
  std::uint64_t pos = 0;
  std::uint64_t applied = 0;
  while (auto ranges = read_record(log, pos)) {
    std::uint64_t bytes = 0;
    for (const auto& r : *ranges) {
      if (r.offset + r.data.size() > db_.size()) break;
      std::memcpy(db_.data() + r.offset, r.data.data(), r.data.size());
      bytes += r.data.size();
    }
    cluster_->charge_local_memcpy(local_, bytes);
    ++applied;
  }
  log_used_ = pos;
  return applied;
}

void RemoteWal::export_metrics(obs::MetricsRegistry& reg, std::string_view label) const {
  const std::string l = "engine=\"" + std::string(label) + "\"";
  reg.counter("wal_commits_total", "WAL-engine commits", l).add(stats_.commits);
  reg.counter("wal_aborts_total", "WAL-engine aborts", l).add(stats_.aborts);
  reg.counter("wal_bytes_logged_total", "Redo/undo bytes logged", l).add(stats_.bytes_logged);
  reg.counter("rwal_disk_chunks_total", "Write-behind chunks sent to disk", l)
      .add(stats_.disk_chunks);
  reg.counter("rwal_truncations_total", "Log truncations", l).add(stats_.truncations);
}

}  // namespace perseas::wal

// The remote-memory write-ahead-log baseline of Ioanidis, Markatos &
// Sevaslidou (FORTH-ICS TR-190, 1997), discussed in paper section 2.
//
// The redo log is replicated: commit synchronously writes the log records
// into a remote node's memory (fast) and asynchronously appends them to the
// on-disk log.  Under light load commits run at network speed; under
// sustained load the disk write-behind buffer fills and the asynchronous
// appends degenerate into synchronous ones, capping throughput at disk
// *throughput* (better than disk-latency-bound RVM, worse than PERSEAS,
// which never touches the disk).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "disk/disk_model.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "wal/log_format.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::wal {

struct RemoteWalOptions {
  std::uint64_t db_size = 1 << 20;
  std::uint64_t log_capacity = 8 << 20;
  /// Disk appends are batched into chunks of this size.
  std::uint64_t disk_chunk_bytes = 64 << 10;
  /// Truncate (reset the log) when it exceeds this fraction of capacity.
  double truncate_fraction = 0.5;
};

struct RemoteWalStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t bytes_logged = 0;
  std::uint64_t disk_chunks = 0;
  std::uint64_t truncations = 0;
};

class RemoteWal {
 public:
  RemoteWal(netram::Cluster& cluster, netram::NodeId local,
            netram::RemoteMemoryServer& log_mirror, disk::DiskModel& disk,
            const RemoteWalOptions& options);

  [[nodiscard]] std::span<std::byte> db() noexcept { return {db_.data(), db_.size()}; }
  [[nodiscard]] std::uint64_t db_size() const noexcept { return db_.size(); }

  void begin_transaction();
  void set_range(std::uint64_t offset, std::uint64_t size);
  void commit_transaction();
  void abort_transaction();
  [[nodiscard]] bool in_transaction() const noexcept { return in_txn_; }

  /// Rebuilds the database after a crash of the local node from the
  /// remote-memory log replica (the disk copy is only needed if the remote
  /// node died as well, which loses the tail that had not drained).
  /// Returns the number of redo records applied.
  std::uint64_t recover();

  [[nodiscard]] const RemoteWalStats& stats() const noexcept { return stats_; }

  /// Folds RemoteWalStats into `reg` as wal_* metrics, engine=`label`.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view label) const;

 private:
  struct UndoEntry {
    std::uint64_t offset;
    std::vector<std::byte> before;
  };

  void truncate();

  netram::Cluster* cluster_;
  netram::NodeId local_;
  netram::RemoteMemoryClient client_;
  netram::RemoteMemoryServer* log_server_;
  disk::DiskModel* disk_;
  RemoteWalOptions options_;

  netram::RemoteSegment log_segment_;
  std::vector<std::byte> db_;
  std::vector<UndoEntry> undo_;
  bool in_txn_ = false;
  std::uint64_t txn_counter_ = 0;
  std::uint64_t log_used_ = 0;
  std::uint64_t disk_log_offset_ = 0;
  std::vector<std::byte> disk_chunk_;  // records not yet handed to the disk

  RemoteWalStats stats_;
};

}  // namespace perseas::wal

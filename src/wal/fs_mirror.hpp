// File-system-style network mirroring: the comparator behind the paper's
// section 2 remark that "network file systems like Sprite and xfs can also
// be used to store replicated data and build a reliable network main
// memory.  However, our approach would still result in better performance
// due to the minimum (block) size transfers that all file systems are
// forced to have."
//
// FsMirror implements the same undo-locally / mirror-remotely protocol as
// PERSEAS, but every remote transfer goes through a file-server interface
// that only moves whole blocks (default 8 KB): a 4-byte update ships a full
// block.  Everything else is kept identical so the measured gap isolates
// exactly the block-granularity cost.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::wal {

struct FsMirrorOptions {
  std::uint64_t db_size = 1 << 20;
  /// Transfer granularity of the network file system.
  std::uint64_t block_bytes = 8 << 10;
  /// Per-block request overhead on top of the wire cost (file-server
  /// protocol processing).
  sim::SimDuration block_overhead = sim::us(40.0);
};

struct FsMirrorStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t blocks_shipped = 0;
  std::uint64_t bytes_shipped = 0;  // whole blocks, not useful bytes
  std::uint64_t useful_bytes = 0;
};

class FsMirror {
 public:
  FsMirror(netram::Cluster& cluster, netram::NodeId local,
           netram::RemoteMemoryServer& file_server, const FsMirrorOptions& options);

  [[nodiscard]] std::span<std::byte> db() noexcept { return {db_.data(), db_.size()}; }
  [[nodiscard]] std::uint64_t db_size() const noexcept { return db_.size(); }

  void begin_transaction();
  void set_range(std::uint64_t offset, std::uint64_t size);
  void commit_transaction();
  void abort_transaction();
  [[nodiscard]] bool in_transaction() const noexcept { return in_txn_; }

  /// Rebuilds the local database from the mirrored blocks.
  void recover();

  [[nodiscard]] const FsMirrorStats& stats() const noexcept { return stats_; }

  void export_metrics(obs::MetricsRegistry& reg, std::string_view label) const;

 private:
  struct UndoEntry {
    std::uint64_t offset;
    std::vector<std::byte> before;
  };

  netram::Cluster* cluster_;
  netram::NodeId local_;
  netram::RemoteMemoryClient client_;
  FsMirrorOptions options_;
  netram::RemoteSegment mirror_;
  std::vector<std::byte> db_;
  std::vector<UndoEntry> undo_;
  std::vector<std::uint64_t> dirty_blocks_;
  bool in_txn_ = false;
  /// Id of the current (or last) transaction: the cost scopes' txn key.
  std::uint64_t txn_counter_ = 0;
  FsMirrorStats stats_;
};

}  // namespace perseas::wal

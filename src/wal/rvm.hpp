// RVM-style recoverable virtual memory (Satyanarayanan et al., TOCS 1994):
// the write-ahead-logging baseline of paper figure 2.
//
// The database lives in ordinary volatile memory; every update is made
// recoverable by (1) an in-memory undo copy at set_range, (2) a redo record
// forced to a stable store at commit — the classic two log forces: the
// record body and the commit mark — and (3) periodic truncation that
// propagates committed redo data into the stable database image.
//
// Running the same engine over disk::DiskStore reproduces "RVM", and over
// rio::RioStore reproduces "Rio-RVM", the paper's two WAL comparators.
//
// Group commit (the "sophisticated optimization" of paper section 6) is
// supported: with group_commit_size = N the engine accumulates the redo
// records of N transactions and pays one force for the whole group.  In a
// multi-client system the group force would also bound each member's
// latency; this single-threaded simulation reports the amortized per-
// transaction cost, which is the throughput figure the paper quotes.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "disk/stable_store.hpp"
#include "netram/cluster.hpp"
#include "wal/log_format.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::wal {

struct RvmOptions {
  std::uint64_t db_size = 1 << 20;
  std::uint64_t log_capacity = 8 << 20;
  /// Transactions per log force (1 = force every commit).
  std::uint32_t group_commit_size = 1;
  /// Truncate (propagate log to the stable DB image) when the log exceeds
  /// this fraction of its capacity.
  double truncate_fraction = 0.5;
  /// Truncation coalesces committed ranges into whole dirty pages of this
  /// size before writing them to the stable image.  (PERSEAS likewise
  /// deduplicates overlapping declarations via PerseasConfig::
  /// coalesce_ranges, so the table-1 comparison does not penalize either
  /// system for redundant propagation.)
  std::uint64_t truncate_page_bytes = 4096;
};

struct RvmStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t log_forces = 0;
  std::uint64_t truncations = 0;
  std::uint64_t bytes_logged = 0;
};

class Rvm {
 public:
  /// `store` must be at least db_size + log_capacity bytes; the engine
  /// places the stable DB image at [0, db_size) and the log after it.
  Rvm(netram::Cluster& cluster, netram::NodeId node, disk::StableStore& store,
      const RvmOptions& options);

  /// The mapped in-memory database the application reads and writes.
  [[nodiscard]] std::span<std::byte> db() noexcept { return {db_.data(), db_.size()}; }
  [[nodiscard]] std::uint64_t db_size() const noexcept { return db_.size(); }

  void begin_transaction();
  /// Declares [offset, offset+size) as about to be modified; saves the
  /// before-image for abort.
  void set_range(std::uint64_t offset, std::uint64_t size);
  void commit_transaction();
  void abort_transaction();
  [[nodiscard]] bool in_transaction() const noexcept { return in_txn_; }

  /// Rebuilds the in-memory database from the stable image plus the durable
  /// log prefix (after a crash of the host node, once restarted).  Returns
  /// the number of redo records applied.
  std::uint64_t recover();

  [[nodiscard]] const RvmStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const RvmOptions& options() const noexcept { return options_; }

  /// Folds RvmStats into `reg` as rvm_* metrics, labelled engine=`label`.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view label) const;

 private:
  struct UndoEntry {
    std::uint64_t offset;
    std::vector<std::byte> before;
  };

  void force_group();
  void maybe_truncate();
  void mark_dirty(std::uint64_t offset, std::uint64_t size);

  netram::Cluster* cluster_;
  netram::NodeId node_;
  disk::StableStore* store_;
  RvmOptions options_;

  std::vector<std::byte> db_;
  std::vector<UndoEntry> undo_;
  bool in_txn_ = false;
  std::uint64_t txn_counter_ = 0;

  /// Redo records of the current (not yet forced) commit group.
  std::vector<std::byte> group_buffer_;
  std::uint32_t group_pending_ = 0;
  /// Byte offset of the next log append, relative to the log area.
  std::uint64_t log_used_ = 0;
  /// Database pages dirtied by commits since the last truncation;
  /// truncation writes these (coalesced) to the stable image.
  std::set<std::uint64_t> dirty_pages_;

  RvmStats stats_;
};

}  // namespace perseas::wal

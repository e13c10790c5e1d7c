#include "wal/fs_mirror.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/cost_ledger.hpp"
#include "obs/metrics.hpp"

namespace perseas::wal {

FsMirror::FsMirror(netram::Cluster& cluster, netram::NodeId local,
                   netram::RemoteMemoryServer& file_server, const FsMirrorOptions& options)
    : cluster_(&cluster),
      local_(local),
      client_(cluster, local),
      options_(options),
      db_(options.db_size) {
  if (file_server.host() == local) {
    throw std::invalid_argument("FsMirror: the file server must be a different node");
  }
  if (options.block_bytes == 0 || (options.block_bytes & (options.block_bytes - 1)) != 0) {
    throw std::invalid_argument("FsMirror: block size must be a power of two");
  }
  const std::uint64_t mirrored =
      (options.db_size + options.block_bytes - 1) / options.block_bytes * options.block_bytes;
  mirror_ = client_.sci_get_new_segment(file_server, mirrored, "fsmirror.db");
}

void FsMirror::begin_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_ + 1, "begin", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_begin);
  if (in_txn_) throw std::logic_error("FsMirror: transaction already active");
  in_txn_ = true;
  ++txn_counter_;
  undo_.clear();
  dirty_blocks_.clear();
}

void FsMirror::set_range(std::uint64_t offset, std::uint64_t size) {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "set_range", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_set_range);
  if (!in_txn_) throw std::logic_error("FsMirror: set_range outside a transaction");
  if (offset + size > db_.size() || offset + size < offset) {
    throw std::out_of_range("FsMirror: set_range outside the database");
  }
  UndoEntry e;
  e.offset = offset;
  e.before.assign(db_.begin() + static_cast<std::ptrdiff_t>(offset),
                  db_.begin() + static_cast<std::ptrdiff_t>(offset + size));
  cluster_->charge_local_memcpy(local_, size);
  undo_.push_back(std::move(e));
  for (std::uint64_t b = offset / options_.block_bytes;
       b <= (offset + size - 1) / options_.block_bytes; ++b) {
    if (std::find(dirty_blocks_.begin(), dirty_blocks_.end(), b) == dirty_blocks_.end()) {
      dirty_blocks_.push_back(b);
    }
  }
  stats_.useful_bytes += size;
}

void FsMirror::commit_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "commit", "wal", "cpu");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_commit);
  if (!in_txn_) throw std::logic_error("FsMirror: commit outside a transaction");
  // Ship every dirty block, whole: the file-system granularity penalty.
  for (const std::uint64_t b : dirty_blocks_) {
    const std::uint64_t offset = b * options_.block_bytes;
    const std::uint64_t size = std::min(options_.block_bytes, db_.size() - offset);
    cluster_->charge_cpu(local_, options_.block_overhead);
    client_.sci_memcpy_write(mirror_, offset,
                             std::span<const std::byte>{db_.data() + offset, size});
    ++stats_.blocks_shipped;
    stats_.bytes_shipped += options_.block_bytes;
  }
  dirty_blocks_.clear();
  undo_.clear();
  in_txn_ = false;
  ++stats_.commits;
}

void FsMirror::abort_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "abort", "wal", "local");
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_abort);
  if (!in_txn_) throw std::logic_error("FsMirror: abort outside a transaction");
  std::uint64_t bytes = 0;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::memcpy(db_.data() + it->offset, it->before.data(), it->before.size());
    bytes += it->before.size();
  }
  cluster_->charge_local_memcpy(local_, bytes);
  undo_.clear();
  dirty_blocks_.clear();
  in_txn_ = false;
  ++stats_.aborts;
}

void FsMirror::recover() {
  const obs::ScopedCost scope(cluster_->sinks(), 0, "recover", "wal", "cpu");
  in_txn_ = false;
  undo_.clear();
  dirty_blocks_.clear();
  client_.sci_memcpy_read(mirror_, 0, db());
}

void FsMirror::export_metrics(obs::MetricsRegistry& reg, std::string_view label) const {
  const std::string l = "engine=\"" + std::string(label) + "\"";
  reg.counter("wal_commits_total", "WAL-engine commits", l).add(stats_.commits);
  reg.counter("wal_aborts_total", "WAL-engine aborts", l).add(stats_.aborts);
  reg.counter("fsmirror_blocks_shipped_total", "Whole blocks shipped to the file server", l)
      .add(stats_.blocks_shipped);
  // Shipped vs useful is the block-granularity overhead the comparator
  // exists to measure (section 2's file-system remark).
  const char* bytes_help = "Bytes shipped to the file server, by accounting";
  reg.counter("fsmirror_bytes_total", bytes_help, l + ",kind=\"shipped\"")
      .add(stats_.bytes_shipped);
  reg.counter("fsmirror_bytes_total", bytes_help, l + ",kind=\"useful\"")
      .add(stats_.useful_bytes);
}

}  // namespace perseas::wal

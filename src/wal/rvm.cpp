#include "wal/rvm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/failure_points.hpp"
#include "obs/metrics.hpp"

namespace perseas::wal {

namespace {
/// Size of the commit mark forced after the record body (second force).
constexpr std::uint64_t kCommitMarkBytes = 64;

/// Failure points instrumented through the WAL protocol; the model checker
/// (perseas::mc) discovers these mechanically and crashes the host at each.
/// The names live in the central registry (core/failure_points.hpp).
constexpr const char* kAfterUndo = core::points::kRvmAfterUndo;
constexpr const char* kAfterBuffer = core::points::kRvmAfterBuffer;
constexpr const char* kCommitDone = core::points::kRvmCommitDone;
constexpr const char* kForceAfterBody = core::points::kRvmForceAfterBody;
constexpr const char* kForceAfterMark = core::points::kRvmForceAfterMark;
constexpr const char* kTruncateAfterPages = core::points::kRvmTruncateAfterPages;
constexpr const char* kTruncateDone = core::points::kRvmTruncateDone;
constexpr const char* kRecoverAfterImage = core::points::kRvmRecoverAfterImage;
constexpr const char* kRecoverAfterReplay = core::points::kRvmRecoverAfterReplay;
constexpr const char* kRecoverDone = core::points::kRvmRecoverDone;
}  // namespace

Rvm::Rvm(netram::Cluster& cluster, netram::NodeId node, disk::StableStore& store,
         const RvmOptions& options)
    : cluster_(&cluster), node_(node), store_(&store), options_(options), db_(options.db_size) {
  if (store.size() < options_.db_size + options_.log_capacity) {
    throw std::invalid_argument("Rvm: stable store smaller than db + log");
  }
  if (options_.group_commit_size == 0) {
    throw std::invalid_argument("Rvm: group_commit_size must be >= 1");
  }
}

void Rvm::begin_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_ + 1, "begin", "wal", "cpu");
  cluster_->charge_cpu(node_, cluster_->profile().library.txn_begin);
  if (in_txn_) throw std::logic_error("Rvm: transaction already active");
  in_txn_ = true;
  ++txn_counter_;
  undo_.clear();
}

void Rvm::set_range(std::uint64_t offset, std::uint64_t size) {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "set_range", "wal", "cpu");
  cluster_->charge_cpu(node_, cluster_->profile().library.txn_set_range);
  if (!in_txn_) throw std::logic_error("Rvm: set_range outside a transaction");
  if (offset + size > db_.size() || offset + size < offset) {
    throw std::out_of_range("Rvm: set_range outside the database");
  }
  UndoEntry e;
  e.offset = offset;
  e.before.assign(db_.begin() + static_cast<std::ptrdiff_t>(offset),
                  db_.begin() + static_cast<std::ptrdiff_t>(offset + size));
  cluster_->charge_local_memcpy(node_, size);  // copy 1 of figure 2
  undo_.push_back(std::move(e));
  cluster_->failures().notify(kAfterUndo);
}

void Rvm::commit_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "commit", "wal", "cpu");
  cluster_->charge_cpu(node_, cluster_->profile().library.txn_commit);
  if (!in_txn_) throw std::logic_error("Rvm: commit outside a transaction");

  // Build redo records (after-images) from the declared ranges.
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
  cluster_->charge_local_memcpy(node_, bytes);  // copy 2 of figure 2
  stats_.bytes_logged += append_record(group_buffer_, txn_counter_, ranges);
  for (const auto& r : ranges) mark_dirty(r.offset, r.data.size());
  cluster_->failures().notify(kAfterBuffer);

  undo_.clear();
  in_txn_ = false;
  ++stats_.commits;

  if (++group_pending_ >= options_.group_commit_size) force_group();
  cluster_->failures().notify(kCommitDone);
}

void Rvm::force_group() {
  if (group_pending_ == 0) return;

  if (log_used_ + group_buffer_.size() + kCommitMarkBytes > options_.log_capacity) {
    maybe_truncate();
    if (log_used_ + group_buffer_.size() + kCommitMarkBytes > options_.log_capacity) {
      throw std::runtime_error("Rvm: commit group larger than the whole log");
    }
  }

  // Force 1: the record bodies.
  store_->write(options_.db_size + log_used_, group_buffer_, /*synchronous=*/true);
  log_used_ += group_buffer_.size();
  cluster_->failures().notify(kForceAfterBody);
  // Force 2: the commit mark that makes the group durable.
  const std::byte mark[kCommitMarkBytes] = {};
  store_->write(options_.db_size + log_used_, mark, /*synchronous=*/true);
  stats_.log_forces += 2;
  cluster_->failures().notify(kForceAfterMark);

  group_buffer_.clear();
  group_pending_ = 0;

  const auto threshold =
      static_cast<std::uint64_t>(options_.truncate_fraction *
                                 static_cast<double>(options_.log_capacity));
  if (log_used_ > threshold) maybe_truncate();
}

void Rvm::mark_dirty(std::uint64_t offset, std::uint64_t size) {
  const std::uint64_t page = options_.truncate_page_bytes;
  for (std::uint64_t p = offset / page; p <= (offset + size - 1) / page; ++p) {
    dirty_pages_.insert(p);
  }
}

void Rvm::maybe_truncate() {
  if (dirty_pages_.empty() && log_used_ == 0) return;
  const obs::ScopedCost scope(cluster_->sinks(), 0, "truncate", "wal", "log");
  // Copy 3 of figure 2: propagate committed after-images to the stable
  // database image, coalesced to whole pages (real RVM's truncation applies
  // the log at page granularity).  These writes are not latency critical,
  // so they go out asynchronously, but truncation must complete before the
  // log restarts.
  const std::uint64_t page = options_.truncate_page_bytes;
  for (const std::uint64_t p : dirty_pages_) {
    const std::uint64_t offset = p * page;
    const std::uint64_t size = std::min(page, db_.size() - offset);
    store_->write(offset, std::span<const std::byte>{db_.data() + offset, size},
                  /*synchronous=*/false);
  }
  store_->flush();
  dirty_pages_.clear();
  cluster_->failures().notify(kTruncateAfterPages);
  // Invalidate the old log contents so recovery stops at the log head.
  // The whole used region is zeroed, not just the first header: otherwise a
  // crash between a later body force and its commit mark would leave the
  // scan free to run off the fresh record into stale pre-truncation records
  // and resurrect their after-images.  The wipe rides the same flush as the
  // page writes; only the head header is forced synchronously.
  if (log_used_ > sizeof(RecordHeader)) {
    const std::vector<std::byte> wipe(log_used_ - sizeof(RecordHeader));
    store_->write(options_.db_size + sizeof(RecordHeader), wipe, /*synchronous=*/false);
    store_->flush();
  }
  const std::byte zeros[sizeof(RecordHeader)] = {};
  store_->write(options_.db_size, zeros, /*synchronous=*/true);
  log_used_ = 0;
  ++stats_.truncations;
  cluster_->failures().notify(kTruncateDone);
}

void Rvm::abort_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "abort", "wal", "local");
  cluster_->charge_cpu(node_, cluster_->profile().library.txn_abort);
  if (!in_txn_) throw std::logic_error("Rvm: abort outside a transaction");
  std::uint64_t bytes = 0;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::memcpy(db_.data() + it->offset, it->before.data(), it->before.size());
    bytes += it->before.size();
  }
  cluster_->charge_local_memcpy(node_, bytes);
  undo_.clear();
  in_txn_ = false;
  ++stats_.aborts;
}

std::uint64_t Rvm::recover() {
  const obs::ScopedCost scope(cluster_->sinks(), 0, "recover", "wal", "cpu");
  if (!store_->contents_survived()) {
    throw std::runtime_error("Rvm: stable store contents were lost; cannot recover");
  }
  in_txn_ = false;
  undo_.clear();
  group_buffer_.clear();
  group_pending_ = 0;

  // Reload the stable database image.
  store_->read(0, db());
  cluster_->failures().notify(kRecoverAfterImage);

  // Scan the durable log prefix and replay committed records.  Truncation
  // only invalidates the log *head*, so stale records from before the last
  // truncation can survive past the durable tail; a crash between the body
  // force and the mark force would otherwise let the scan run straight from
  // the fresh record into those stale ones and resurrect old after-images.
  // Transaction ids are strictly increasing within and across incarnations
  // (txn_counter_ is restored below), so replay stops at the first
  // non-increasing id.
  std::vector<std::byte> log(options_.log_capacity);
  store_->read(options_.db_size, log);
  std::uint64_t pos = 0;
  std::uint64_t applied = 0;
  std::uint64_t last_id = 0;
  while (pos + sizeof(RecordHeader) <= log.size()) {
    RecordHeader hdr;
    std::memcpy(&hdr, log.data() + pos, sizeof hdr);
    if (hdr.magic != RecordHeader::kMagic || hdr.txn_id <= last_id) break;
    auto ranges = read_record(log, pos);
    if (!ranges) break;
    std::uint64_t bytes = 0;
    for (const auto& r : *ranges) {
      std::memcpy(db_.data() + r.offset, r.data.data(), r.data.size());
      bytes += r.data.size();
      mark_dirty(r.offset, r.data.size());
    }
    cluster_->charge_local_memcpy(node_, bytes);
    last_id = hdr.txn_id;
    ++applied;
  }
  log_used_ = pos;
  // Keep ids monotonic across incarnations: resume the counter above every
  // id still physically present in the log — including stale records past
  // the durable tail, which are parsed here but never applied — so future
  // appends can never collide with a stale id the guard above depends on.
  std::uint64_t max_seen = last_id;
  std::uint64_t scan_pos = pos;
  while (scan_pos + sizeof(RecordHeader) <= log.size()) {
    RecordHeader hdr;
    std::memcpy(&hdr, log.data() + scan_pos, sizeof hdr);
    if (hdr.magic != RecordHeader::kMagic || !read_record(log, scan_pos)) break;
    max_seen = std::max(max_seen, hdr.txn_id);
  }
  txn_counter_ = std::max(txn_counter_, max_seen);
  cluster_->failures().notify(kRecoverAfterReplay);
  // Propagate the replayed state and reset the log.
  maybe_truncate();
  cluster_->failures().notify(kRecoverDone);
  return applied;
}

void Rvm::export_metrics(obs::MetricsRegistry& reg, std::string_view label) const {
  const std::string l = "engine=\"" + std::string(label) + "\"";
  reg.counter("wal_commits_total", "WAL-engine commits", l).add(stats_.commits);
  reg.counter("wal_aborts_total", "WAL-engine aborts", l).add(stats_.aborts);
  reg.counter("wal_bytes_logged_total", "Redo/undo bytes logged", l).add(stats_.bytes_logged);
  reg.counter("rvm_log_forces_total", "Synchronous log forces", l).add(stats_.log_forces);
  reg.counter("rvm_truncations_total", "Log truncations", l).add(stats_.truncations);
}

}  // namespace perseas::wal

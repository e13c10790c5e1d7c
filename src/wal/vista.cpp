#include "wal/vista.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "core/failure_points.hpp"
#include "obs/metrics.hpp"

namespace perseas::wal {

namespace {
/// Failure points instrumented through the Vista protocol; the model
/// checker (perseas::mc) discovers these mechanically.  The names live in
/// the central registry (core/failure_points.hpp).
constexpr const char* kAfterEntry = core::points::kVistaAfterEntry;
constexpr const char* kAfterHeader = core::points::kVistaAfterHeader;
constexpr const char* kCommitDone = core::points::kVistaCommitDone;
constexpr const char* kRecoverAfterScan = core::points::kVistaRecoverAfterScan;
constexpr const char* kRecoverAfterApply = core::points::kVistaRecoverAfterApply;
constexpr const char* kRecoverDone = core::points::kVistaRecoverDone;
}  // namespace

Vista::Vista(netram::Cluster& cluster, netram::NodeId node, rio::RioCache& rio,
             const VistaOptions& options)
    : cluster_(&cluster), node_(node), rio_(&rio), options_(options) {
  if (rio.host() != node) {
    throw std::invalid_argument("Vista: the Rio cache must live on the same node");
  }
  db_region_ = rio_->create_region("vista.db", options_.db_size);
  undo_region_ = rio_->create_region("vista.undo", sizeof(UndoHeader) + options_.undo_capacity);
  const UndoHeader empty;
  write_undo_header(empty);
}

std::span<std::byte> Vista::db() { return rio_->mapped(db_region_, 0, options_.db_size); }

void Vista::write_undo_header(const UndoHeader& hdr) {
  rio_->mapped_write(undo_region_, 0,
                     {reinterpret_cast<const std::byte*>(&hdr), sizeof hdr});
}

Vista::UndoHeader Vista::read_undo_header() {
  UndoHeader hdr;
  auto span = rio_->mapped(undo_region_, 0, sizeof hdr);
  std::memcpy(&hdr, span.data(), sizeof hdr);
  return hdr;
}

void Vista::begin_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_ + 1, "begin", "wal", "cpu");
  cluster_->charge_cpu(node_, cluster_->profile().library.txn_begin);
  if (in_txn_) throw std::logic_error("Vista: transaction already active");
  in_txn_ = true;
  ++txn_counter_;
  const UndoHeader empty;
  write_undo_header(empty);
}

void Vista::set_range(std::uint64_t offset, std::uint64_t size) {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "set_range", "wal", "cpu");
  cluster_->charge_cpu(node_, options_.op_overhead);
  if (!in_txn_) throw std::logic_error("Vista: set_range outside a transaction");
  if (offset + size > options_.db_size || offset + size < offset) {
    throw std::out_of_range("Vista: set_range outside the database");
  }
  UndoHeader hdr = read_undo_header();
  const std::uint64_t need = sizeof(EntryHeader) + size;
  if (hdr.bytes_used + need > options_.undo_capacity) {
    throw std::runtime_error("Vista: undo log full");
  }
  const EntryHeader e{offset, size};
  const std::uint64_t base = sizeof(UndoHeader) + hdr.bytes_used;
  rio_->mapped_write(undo_region_, base, {reinterpret_cast<const std::byte*>(&e), sizeof e});
  // The before-image, copied within reliable memory at memcpy speed.
  auto src = rio_->mapped(db_region_, offset, size);
  rio_->mapped_write(undo_region_, base + sizeof e, src);
  cluster_->failures().notify(kAfterEntry);
  hdr.bytes_used += need;
  hdr.entry_count += 1;
  write_undo_header(hdr);
  cluster_->failures().notify(kAfterHeader);
  stats_.bytes_logged += size;
  ++stats_.set_ranges;
}

void Vista::commit_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "commit", "wal", "cpu");
  cluster_->charge_cpu(node_, options_.op_overhead);
  if (!in_txn_) throw std::logic_error("Vista: commit outside a transaction");
  // The essence of Vista: the database is already durable, so committing is
  // just discarding the undo log.
  const UndoHeader empty;
  write_undo_header(empty);
  in_txn_ = false;
  ++stats_.commits;
  cluster_->failures().notify(kCommitDone);
}

void Vista::abort_transaction() {
  const obs::ScopedCost scope(cluster_->sinks(), txn_counter_, "abort", "wal", "local");
  cluster_->charge_cpu(node_, options_.op_overhead);
  if (!in_txn_) throw std::logic_error("Vista: abort outside a transaction");
  recover();  // identical mechanics: apply the undo log
  in_txn_ = false;
  ++stats_.aborts;
}

std::uint64_t Vista::recover() {
  const obs::ScopedCost scope(cluster_->sinks(), 0, "recover", "wal", "cpu");
  rio_->sync_with_host();
  UndoHeader hdr = read_undo_header();  // throws if the cache was lost

  // Collect entry positions, then apply before-images newest-first.
  std::vector<std::pair<std::uint64_t, EntryHeader>> entries;
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < hdr.entry_count; ++i) {
    EntryHeader e;
    auto span = rio_->mapped(undo_region_, sizeof(UndoHeader) + pos, sizeof e);
    std::memcpy(&e, span.data(), sizeof e);
    entries.emplace_back(sizeof(UndoHeader) + pos + sizeof e, e);
    pos += sizeof e + e.size;
  }
  cluster_->failures().notify(kRecoverAfterScan);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    auto image = rio_->mapped(undo_region_, it->first, it->second.size);
    rio_->mapped_write(db_region_, it->second.offset, image);
  }
  cluster_->failures().notify(kRecoverAfterApply);
  const UndoHeader empty;
  write_undo_header(empty);
  in_txn_ = false;
  cluster_->failures().notify(kRecoverDone);
  return hdr.entry_count;
}

void Vista::export_metrics(obs::MetricsRegistry& reg, std::string_view label) const {
  const std::string l = "engine=\"" + std::string(label) + "\"";
  reg.counter("wal_commits_total", "WAL-engine commits", l).add(stats_.commits);
  reg.counter("wal_aborts_total", "WAL-engine aborts", l).add(stats_.aborts);
  reg.counter("wal_bytes_logged_total", "Redo/undo bytes logged", l).add(stats_.bytes_logged);
  reg.counter("vista_set_ranges_total", "set_range declarations", l).add(stats_.set_ranges);
}

}  // namespace perseas::wal

// Vista-style recoverable memory (Lowell & Chen, SOSP 1997): the fastest
// comparator in the paper's evaluation.
//
// Vista maps the database and an undo log directly into the Rio file cache,
// which survives operating-system crashes.  Because the mapped pages are
// themselves reliable, there is no redo log at all: set_range saves a
// before-image into the (reliable) undo log, the application updates the
// (reliable) database in place, and commit merely resets the undo log head
// — all at memory speed.  The price is the dependency on Rio: a kernel
// modification, and a single machine whose UPS is a single point of failure
// (the paper's availability argument for PERSEAS).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netram/cluster.hpp"
#include "rio/rio_cache.hpp"

namespace perseas::obs {
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::wal {

struct VistaOptions {
  std::uint64_t db_size = 1 << 20;
  std::uint64_t undo_capacity = 1 << 20;
  /// Fixed software cost of each Vista library call (log head and range
  /// bookkeeping on the era-appropriate CPU).
  sim::SimDuration op_overhead = sim::ns(700);
};

struct VistaStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t set_ranges = 0;
  std::uint64_t bytes_logged = 0;
};

class Vista {
 public:
  Vista(netram::Cluster& cluster, netram::NodeId node, rio::RioCache& rio,
        const VistaOptions& options);

  /// The mapped, Rio-resident database.
  [[nodiscard]] std::span<std::byte> db();
  [[nodiscard]] std::uint64_t db_size() const noexcept { return options_.db_size; }

  void begin_transaction();
  void set_range(std::uint64_t offset, std::uint64_t size);
  void commit_transaction();
  void abort_transaction();
  [[nodiscard]] bool in_transaction() const noexcept { return in_txn_; }

  /// After a crash+restart of the host: rolls back an interrupted
  /// transaction using the Rio-resident undo log.  Throws if the crash kind
  /// destroyed the Rio cache (power loss without UPS, hardware fault).
  /// Returns the number of undo entries applied.
  std::uint64_t recover();

  [[nodiscard]] const VistaStats& stats() const noexcept { return stats_; }

  /// Folds VistaStats into `reg` as wal_* metrics, labelled engine=`label`.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view label) const;

 private:
  struct UndoHeader {
    std::uint64_t entry_count = 0;
    std::uint64_t bytes_used = 0;
  };
  struct EntryHeader {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };

  void write_undo_header(const UndoHeader& hdr);
  [[nodiscard]] UndoHeader read_undo_header();

  netram::Cluster* cluster_;
  netram::NodeId node_;
  rio::RioCache* rio_;
  VistaOptions options_;
  std::uint32_t db_region_;
  std::uint32_t undo_region_;
  bool in_txn_ = false;
  VistaStats stats_;
  std::uint64_t txn_counter_ = 0;
};

}  // namespace perseas::wal

// Concrete TxnEngine adapters for PERSEAS and every comparator, plus
// EngineLab, a self-contained test/bench fixture that owns the whole
// simulated substrate an engine needs.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/perseas.hpp"
#include "disk/disk_model.hpp"
#include "disk/disk_store.hpp"
#include "disk/nvram_store.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "rio/rio_cache.hpp"
#include "wal/fs_mirror.hpp"
#include "wal/remote_wal.hpp"
#include "wal/rvm.hpp"
#include "wal/vista.hpp"
#include "workload/engine.hpp"

namespace perseas::workload {

/// PERSEAS with the whole flat database in one persistent record.
/// recover() rebuilds the instance in place from the mirrors.  The engine
/// takes no lock of its own: one caller drives a slot at a time (the
/// TxnEngine contract; pool worker w owns slot w), and db() is a span
/// cached at construction and at recover().
class PerseasEngine final : public TxnEngine {
 public:
  PerseasEngine(netram::Cluster& cluster, netram::NodeId local,
                std::vector<netram::RemoteMemoryServer*> mirrors, std::uint64_t db_size,
                core::PerseasConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "perseas"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return local_; }
  [[nodiscard]] std::span<std::byte> db() override { return db_bytes_; }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return record_.size(); }

  void begin() override { begin_slot(0); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    set_range_slot(0, offset, size);
  }
  void commit() override { commit_slot(0); }
  void abort() override { abort_slot(0); }

  /// PERSEAS transactions run concurrently (disjoint write sets); the
  /// engine exposes a fixed number of slots, each holding one open
  /// core::Transaction.  An overlapping set_range_slot raises
  /// core::TxnConflict with the slot's transaction still open — the
  /// workload aborts the slot and retries.
  static constexpr std::uint32_t kTxnSlots = 8;
  [[nodiscard]] std::uint32_t max_open_txns() const noexcept override { return kTxnSlots; }
  void begin_slot(std::uint32_t slot) override;
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void read_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void commit_slot(std::uint32_t slot) override;
  void abort_slot(std::uint32_t slot) override;

  /// Drops the open slots (an abort against the dead node is a no-op;
  /// after a restart it would write into the new incarnation), restarts
  /// the node and recovers a new instance from the mirrors.  Returns the
  /// undo entries the recovery rolled back.  If the recovery itself
  /// throws, only recover() may be called next.
  std::uint64_t recover() override;

  void export_metrics(obs::MetricsRegistry& reg) const override { db_->export_metrics(reg); }

  /// The current instance (a new one after each recover()).
  [[nodiscard]] core::Perseas& perseas() noexcept { return *db_; }

 private:
  netram::Cluster* cluster_;
  netram::NodeId local_;
  std::vector<netram::RemoteMemoryServer*> mirrors_;
  core::PerseasConfig config_;
  std::optional<core::Perseas> db_;
  core::RecordHandle record_;
  /// record_'s bytes (the record, and so the span, changes only in
  /// recover()).
  std::span<std::byte> db_bytes_;
  /// One slot's open Transaction, on a cache line of its own: slot s is
  /// written only by its one caller, at every begin and commit.
  struct alignas(64) Slot {
    std::optional<core::Transaction> txn;
  };
  std::array<Slot, kTxnSlots> slots_;
};

/// RVM over any stable store (disk -> "rvm-disk", Rio -> "rvm-rio").
class RvmEngine final : public TxnEngine {
 public:
  RvmEngine(std::string name, netram::Cluster& cluster, netram::NodeId node,
            disk::StableStore& store, const wal::RvmOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return rvm_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return rvm_.db_size(); }

  void begin() override { rvm_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    rvm_.set_range(offset, size);
  }
  void commit() override { rvm_.commit_transaction(); }
  void abort() override { rvm_.abort_transaction(); }

  std::uint64_t recover() override {
    restart_app_node_if_down();
    return rvm_.recover();
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    rvm_.export_metrics(reg, name_);
  }

 private:
  std::string name_;
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::Rvm rvm_;
};

class VistaEngine final : public TxnEngine {
 public:
  VistaEngine(netram::Cluster& cluster, netram::NodeId node, rio::RioCache& rio,
              const wal::VistaOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "vista"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return vista_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return vista_.db_size(); }

  void begin() override { vista_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    vista_.set_range(offset, size);
  }
  void commit() override { vista_.commit_transaction(); }
  void abort() override { vista_.abort_transaction(); }

  std::uint64_t recover() override {
    restart_app_node_if_down();
    return vista_.recover();
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    vista_.export_metrics(reg, name());
  }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::Vista vista_;
};

class RemoteWalEngine final : public TxnEngine {
 public:
  RemoteWalEngine(netram::Cluster& cluster, netram::NodeId local,
                  netram::RemoteMemoryServer& mirror, disk::DiskModel& disk,
                  const wal::RemoteWalOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "remote-wal"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return wal_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return wal_.db_size(); }

  void begin() override { wal_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    wal_.set_range(offset, size);
  }
  void commit() override { wal_.commit_transaction(); }
  void abort() override { wal_.abort_transaction(); }

  std::uint64_t recover() override {
    restart_app_node_if_down();
    return wal_.recover();
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    wal_.export_metrics(reg, name());
  }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::RemoteWal wal_;
};

class FsMirrorEngine final : public TxnEngine {
 public:
  FsMirrorEngine(netram::Cluster& cluster, netram::NodeId local,
                 netram::RemoteMemoryServer& file_server, const wal::FsMirrorOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "fs-mirror"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return mirror_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return mirror_.db_size(); }

  void begin() override { mirror_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    mirror_.set_range(offset, size);
  }
  void commit() override { mirror_.commit_transaction(); }
  void abort() override { mirror_.abort_transaction(); }

  /// The mirror holds whole blocks, not a log: recovery applies nothing.
  std::uint64_t recover() override {
    restart_app_node_if_down();
    mirror_.recover();
    return 0;
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    mirror_.export_metrics(reg, name());
  }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::FsMirror mirror_;
};

/// Which system an EngineLab should assemble.
enum class EngineKind {
  kPerseas,
  kVista,
  kRvmRio,
  kRvmDisk,
  kRvmDiskGroupCommit,
  kRvmNvram,
  kRemoteWal,
  kFsMirror,
};

[[nodiscard]] std::string_view to_string(EngineKind kind) noexcept;

struct LabOptions {
  std::uint64_t db_size = 1 << 20;
  sim::HardwareProfile profile = sim::HardwareProfile::forth_1997();
  std::uint64_t seed = 0x1998;
  /// Group size for kRvmDiskGroupCommit.
  std::uint32_t group_commit_size = 256;
  core::PerseasConfig perseas;
  std::uint64_t log_capacity = 8 << 20;

  /// Optional, not owned: the lab registers one track for the whole
  /// fixture and attaches the recorder to its cluster, so every cost scope
  /// of the engine records a span there.
  obs::TraceRecorder* trace = nullptr;
  /// Track name; defaults to the engine kind's name.
  std::string trace_label;
};

/// Owns a two-node cluster plus whatever substrate (disk, Rio cache, remote
/// memory server) the chosen engine needs.  The application always runs on
/// node 0; remote resources live on node 1.
class EngineLab {
 public:
  EngineLab(EngineKind kind, const LabOptions& options = {});

  [[nodiscard]] TxnEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] netram::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] EngineKind kind() const noexcept { return kind_; }

  /// Folds every layer's counters into `reg`: cluster, disk (if present),
  /// and the engine itself.  Call once per registry after the workload.
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  EngineKind kind_;
  std::unique_ptr<netram::Cluster> cluster_;
  std::unique_ptr<netram::RemoteMemoryServer> server_;
  std::unique_ptr<disk::DiskModel> disk_;
  std::unique_ptr<disk::DiskStore> disk_store_;
  std::unique_ptr<disk::NvramStore> nvram_store_;
  std::unique_ptr<rio::RioCache> rio_;
  std::unique_ptr<rio::RioStore> rio_store_;
  std::unique_ptr<TxnEngine> engine_;
};

}  // namespace perseas::workload

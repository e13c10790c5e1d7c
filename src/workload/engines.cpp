#include "workload/engines.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace perseas::workload {

PerseasEngine::PerseasEngine(netram::Cluster& cluster, netram::NodeId local,
                             std::vector<netram::RemoteMemoryServer*> mirrors,
                             std::uint64_t db_size, core::PerseasConfig config)
    : cluster_(&cluster), local_(local), mirrors_(std::move(mirrors)),
      config_(std::move(config)) {
  db_.emplace(cluster, local, mirrors_, config_);
  record_ = db_->persistent_malloc(db_size);
  db_bytes_ = record_.bytes();
  db_->init_remote_db();
}

void PerseasEngine::begin_slot(std::uint32_t slot) {
  check_slot(slot);
  if (slots_[slot].txn) {
    throw core::UsageError("PerseasEngine: slot already has an open transaction");
  }
  slots_[slot].txn.emplace(db_->begin_transaction());
}

void PerseasEngine::set_range_slot(std::uint32_t slot, std::uint64_t offset,
                                   std::uint64_t size) {
  check_slot(slot);
  if (!slots_[slot].txn) throw core::UsageError("PerseasEngine: set_range outside a transaction");
  slots_[slot].txn->set_range(record_, offset, size);
}

void PerseasEngine::read_range_slot(std::uint32_t slot, std::uint64_t offset,
                                    std::uint64_t size) {
  check_slot(slot);
  if (!slots_[slot].txn) throw core::UsageError("PerseasEngine: read_range outside a transaction");
  slots_[slot].txn->read_range(record_, offset, size);
}

void PerseasEngine::commit_slot(std::uint32_t slot) {
  check_slot(slot);
  if (!slots_[slot].txn) throw core::UsageError("PerseasEngine: commit outside a transaction");
  slots_[slot].txn->commit();
  slots_[slot].txn.reset();
}

void PerseasEngine::abort_slot(std::uint32_t slot) {
  check_slot(slot);
  if (!slots_[slot].txn) throw core::UsageError("PerseasEngine: abort outside a transaction");
  slots_[slot].txn->abort();
  slots_[slot].txn.reset();
}

std::uint64_t PerseasEngine::recover() {
  for (Slot& slot : slots_) slot.txn.reset();
  restart_app_node_if_down();
  db_.emplace(core::Perseas::RecoverTag{}, *cluster_, local_, mirrors_, config_);
  record_ = db_->record(0);
  db_bytes_ = record_.bytes();
  return db_->recovery_report().entries_applied;
}

RvmEngine::RvmEngine(std::string name, netram::Cluster& cluster, netram::NodeId node,
                     disk::StableStore& store, const wal::RvmOptions& options)
    : name_(std::move(name)), cluster_(&cluster), node_(node),
      rvm_(cluster, node, store, options) {}

VistaEngine::VistaEngine(netram::Cluster& cluster, netram::NodeId node, rio::RioCache& rio,
                         const wal::VistaOptions& options)
    : cluster_(&cluster), node_(node), vista_(cluster, node, rio, options) {}

RemoteWalEngine::RemoteWalEngine(netram::Cluster& cluster, netram::NodeId local,
                                 netram::RemoteMemoryServer& mirror, disk::DiskModel& disk,
                                 const wal::RemoteWalOptions& options)
    : cluster_(&cluster), node_(local), wal_(cluster, local, mirror, disk, options) {}

FsMirrorEngine::FsMirrorEngine(netram::Cluster& cluster, netram::NodeId local,
                               netram::RemoteMemoryServer& file_server,
                               const wal::FsMirrorOptions& options)
    : cluster_(&cluster), node_(local), mirror_(cluster, local, file_server, options) {}

std::string_view to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kPerseas: return "perseas";
    case EngineKind::kVista: return "vista";
    case EngineKind::kRvmRio: return "rvm-rio";
    case EngineKind::kRvmDisk: return "rvm-disk";
    case EngineKind::kRvmDiskGroupCommit: return "rvm-disk-group";
    case EngineKind::kRvmNvram: return "rvm-nvram";
    case EngineKind::kRemoteWal: return "remote-wal";
    case EngineKind::kFsMirror: return "fs-mirror";
  }
  return "unknown";
}

EngineLab::EngineLab(EngineKind kind, const LabOptions& options) : kind_(kind) {
  netram::ClusterConfig cc;
  cc.node_count = 2;
  cc.seed = options.seed;
  cluster_ = std::make_unique<netram::Cluster>(options.profile, cc);

  if (options.trace != nullptr) {
    const std::string label =
        options.trace_label.empty() ? std::string(to_string(kind)) : options.trace_label;
    cluster_->set_trace(options.trace, options.trace->register_track(label));
  }

  const netram::NodeId app = 0;
  const netram::NodeId remote = 1;

  switch (kind) {
    case EngineKind::kPerseas: {
      server_ = std::make_unique<netram::RemoteMemoryServer>(*cluster_, remote);
      engine_ = std::make_unique<PerseasEngine>(*cluster_, app,
                                                std::vector{server_.get()}, options.db_size,
                                                options.perseas);
      break;
    }
    case EngineKind::kVista: {
      rio_ = std::make_unique<rio::RioCache>(*cluster_, app, /*ups_protected=*/true);
      wal::VistaOptions vo;
      vo.db_size = options.db_size;
      vo.undo_capacity = std::max<std::uint64_t>(options.db_size * 2, 1 << 20);
      engine_ = std::make_unique<VistaEngine>(*cluster_, app, *rio_, vo);
      break;
    }
    case EngineKind::kRvmRio:
    case EngineKind::kRvmDisk:
    case EngineKind::kRvmDiskGroupCommit:
    case EngineKind::kRvmNvram: {
      wal::RvmOptions ro;
      ro.db_size = options.db_size;
      ro.log_capacity = options.log_capacity;
      if (kind == EngineKind::kRvmDiskGroupCommit) {
        ro.group_commit_size = options.group_commit_size;
      }
      disk::StableStore* store = nullptr;
      if (kind == EngineKind::kRvmRio) {
        rio_ = std::make_unique<rio::RioCache>(*cluster_, app, /*ups_protected=*/true);
        rio_store_ = std::make_unique<rio::RioStore>(*rio_, "rvm.stable",
                                                     ro.db_size + ro.log_capacity);
        store = rio_store_.get();
      } else if (kind == EngineKind::kRvmNvram) {
        nvram_store_ = std::make_unique<disk::NvramStore>("rvm.stable", cluster_->clock(),
                                                          ro.db_size + ro.log_capacity);
        store = nvram_store_.get();
      } else {
        disk_ = std::make_unique<disk::DiskModel>(cluster_->clock(), options.profile.disk);
        disk_store_ = std::make_unique<disk::DiskStore>("rvm.stable", *disk_,
                                                        ro.db_size + ro.log_capacity);
        store = disk_store_.get();
      }
      engine_ = std::make_unique<RvmEngine>(std::string(to_string(kind)), *cluster_, app,
                                            *store, ro);
      break;
    }
    case EngineKind::kFsMirror: {
      server_ = std::make_unique<netram::RemoteMemoryServer>(*cluster_, remote);
      wal::FsMirrorOptions fo;
      fo.db_size = options.db_size;
      engine_ = std::make_unique<FsMirrorEngine>(*cluster_, app, *server_, fo);
      break;
    }
    case EngineKind::kRemoteWal: {
      server_ = std::make_unique<netram::RemoteMemoryServer>(*cluster_, remote);
      disk_ = std::make_unique<disk::DiskModel>(cluster_->clock(), options.profile.disk);
      wal::RemoteWalOptions wo;
      wo.db_size = options.db_size;
      wo.log_capacity = options.log_capacity;
      engine_ = std::make_unique<RemoteWalEngine>(*cluster_, app, *server_, *disk_, wo);
      break;
    }
  }
  if (!engine_) throw std::logic_error("EngineLab: unknown engine kind");
}

void EngineLab::export_metrics(obs::MetricsRegistry& reg) const {
  cluster_->export_metrics(reg);
  if (disk_) disk_->export_metrics(reg);
  engine_->export_metrics(reg);
}

}  // namespace perseas::workload

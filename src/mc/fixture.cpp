#include "mc/fixture.hpp"

#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "core/layout.hpp"
#include "core/perseas.hpp"
#include "netram/remote_memory.hpp"
#include "workload/engines.hpp"

namespace perseas::mc {

namespace {

/// PERSEAS on a two-node cluster: application on node 0, one mirror server
/// on node 1, the whole database in one persistent record.  Unlike
/// workload::PerseasEngine this fixture can swap in a freshly recovered
/// Perseas instance after a crash.
class PerseasFixture final : public McFixture {
 public:
  explicit PerseasFixture(const McFixtureOptions& options)
      : cluster_(sim::HardwareProfile::forth_1997(), 2), server_(cluster_, 1) {
    config_.name = "mc";
    config_.undo_capacity = options.perseas_undo_capacity;
    db_.emplace(cluster_, 0, std::vector{&server_}, config_);
    record_ = db_->persistent_malloc(options.db_size);
    db_->init_remote_db();
  }

  [[nodiscard]] std::string_view engine_name() const noexcept override { return "perseas"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return cluster_; }
  [[nodiscard]] std::span<std::byte> db() override { return record_.bytes(); }

  void begin() override { begin_slot(0); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    set_range_slot(0, offset, size);
  }
  void commit() override { commit_slot(0); }

  // Two slots so the interleaved workload can hold a pair of transactions
  // open; their write sets are parity-disjoint by construction, so the
  // conflict table never rejects a declaration here.
  [[nodiscard]] std::uint32_t max_slots() const noexcept override {
    return static_cast<std::uint32_t>(txns_.size());
  }
  void begin_slot(std::uint32_t slot) override {
    require_slot(slot);
    txns_[slot].emplace(db_->begin_transaction());
  }
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override {
    require_slot(slot);
    txns_[slot]->set_range(record_, offset, size);
  }
  void commit_slot(std::uint32_t slot) override {
    require_slot(slot);
    txns_[slot]->commit();
    txns_[slot].reset();
  }

  void crash(sim::FailureKind kind) override { cluster_.crash_node(0, kind); }

  void recover() override {
    // Abort-on-destroy is a no-op against a dead node.
    for (auto& txn : txns_) txn.reset();
    if (cluster_.node(0).crashed()) cluster_.restart_node(0);
    db_.emplace(core::Perseas::RecoverTag{}, cluster_, 0,
                std::vector<netram::RemoteMemoryServer*>{&server_}, config_);
    record_ = db_->record(0);
  }

  void check_hygiene() override {
    netram::RemoteMemoryClient client(cluster_, 0);
    const auto meta = client.sci_connect_segment(server_, core::meta_key(config_.name));
    if (!meta) throw std::runtime_error("hygiene: mirror no longer exports the meta segment");
    core::MetaHeader hdr;
    std::vector<std::byte> buf(sizeof hdr);
    client.sci_memcpy_read(*meta, 0, buf);
    std::memcpy(&hdr, buf.data(), sizeof hdr);
    if (!hdr.valid()) throw std::runtime_error("hygiene: mirror meta header is corrupt");
    if (hdr.propagating_txn != 0) {
      throw std::runtime_error("hygiene: propagating_txn=" +
                               std::to_string(hdr.propagating_txn) +
                               " still set after recovery (undo log left armed)");
    }
    if (db_->in_transaction()) {
      throw std::runtime_error("hygiene: recovered instance reports an open transaction");
    }
  }

  [[nodiscard]] std::vector<core::points::PointId> committed_points() const override {
    // Single-mirror configuration: the store clearing propagating_txn on
    // the (only) mirror IS the commit point.
    return {"perseas.commit.after_flag_clear", "perseas.commit.done"};
  }
  [[nodiscard]] std::vector<sim::FailureKind> supported_kinds() const override {
    // The mirror on node 1 is untouched by any failure of the application
    // node, so every data-losing kind is recoverable.
    return {sim::FailureKind::kSoftwareCrash, sim::FailureKind::kPowerOutage,
            sim::FailureKind::kHardwareFault};
  }

 private:
  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  core::PerseasConfig config_;
  std::optional<core::Perseas> db_;
  core::RecordHandle record_;
  std::array<std::optional<core::Transaction>, 2> txns_;
};

/// Any EngineLab-assembled comparator with an engine-level recovery entry
/// point: RVM over disk / Rio / NVRAM, and Vista.
class LabFixture final : public McFixture {
 public:
  LabFixture(workload::EngineKind kind, const McFixtureOptions& options)
      : kind_(kind), lab_(kind, lab_options(options)) {}

  [[nodiscard]] std::string_view engine_name() const noexcept override {
    return to_string(kind_);
  }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return lab_.cluster(); }
  [[nodiscard]] std::span<std::byte> db() override { return lab_.engine().db(); }

  void begin() override { lab_.engine().begin(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    lab_.engine().set_range(offset, size);
  }
  void commit() override { lab_.engine().commit(); }

  void crash(sim::FailureKind kind) override { lab_.cluster().crash_node(0, kind); }

  void recover() override {
    if (lab_.cluster().node(0).crashed()) lab_.cluster().restart_node(0);
    engine_recover();
  }

  void check_hygiene() override {
    // Both engines return how much log they replayed; a clean recovery
    // leaves nothing behind, so a second pass must apply zero records.
    const std::uint64_t replayed = engine_recover();
    if (replayed != 0) {
      throw std::runtime_error("hygiene: second recovery replayed " +
                               std::to_string(replayed) + " log records");
    }
  }

  [[nodiscard]] std::vector<core::points::PointId> committed_points() const override {
    if (kind_ == workload::EngineKind::kVista) return {"vista.commit.done"};
    // group_commit_size is 1 here, so commit_transaction always forces:
    // once the record body is durable, replay applies it deterministically.
    // Truncation points stay ambiguous (the capacity-overflow path
    // truncates before the in-flight group is forced) and are excluded.
    return {"rvm.force.after_body", "rvm.force.after_mark", "rvm.commit.done"};
  }

  [[nodiscard]] std::vector<sim::FailureKind> supported_kinds() const override {
    if (kind_ == workload::EngineKind::kVista || kind_ == workload::EngineKind::kRvmRio) {
      // The Rio cache (UPS-protected in EngineLab) survives software
      // crashes and power outages; a hardware fault destroys it.
      return {sim::FailureKind::kSoftwareCrash, sim::FailureKind::kPowerOutage};
    }
    return {sim::FailureKind::kSoftwareCrash, sim::FailureKind::kPowerOutage,
            sim::FailureKind::kHardwareFault};
  }

 private:
  static workload::LabOptions lab_options(const McFixtureOptions& options) {
    workload::LabOptions lo;
    lo.db_size = options.db_size;
    lo.seed = options.seed;
    lo.log_capacity = options.rvm_log_capacity;
    return lo;
  }

  std::uint64_t engine_recover() {
    if (kind_ == workload::EngineKind::kVista) {
      return static_cast<workload::VistaEngine&>(lab_.engine()).vista().recover();
    }
    return static_cast<workload::RvmEngine&>(lab_.engine()).rvm().recover();
  }

  workload::EngineKind kind_;
  workload::EngineLab lab_;
};

}  // namespace

std::vector<std::string> known_engines() {
  return {"perseas", "rvm-disk", "rvm-rio", "rvm-nvram", "vista"};
}

std::unique_ptr<McFixture> make_fixture(const std::string& engine,
                                        const McFixtureOptions& options) {
  if (engine == "perseas") return std::make_unique<PerseasFixture>(options);
  if (engine == "rvm-disk") {
    return std::make_unique<LabFixture>(workload::EngineKind::kRvmDisk, options);
  }
  if (engine == "rvm-rio") {
    return std::make_unique<LabFixture>(workload::EngineKind::kRvmRio, options);
  }
  if (engine == "rvm-nvram") {
    return std::make_unique<LabFixture>(workload::EngineKind::kRvmNvram, options);
  }
  if (engine == "vista") return std::make_unique<LabFixture>(workload::EngineKind::kVista, options);
  throw std::invalid_argument("make_fixture: unknown engine '" + engine + "'");
}

}  // namespace perseas::mc

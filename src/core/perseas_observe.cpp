// Observability wiring of the Perseas orchestration layer: the write-set
// validator, the PERSEAS_METRICS dump, and the PerseasStats ->
// MetricsRegistry export.  Split from perseas.cpp so the protocol
// sequencing stays readable on its own.  (Trace spans come from the cost
// scopes in perseas.cpp; PERSEAS_TRACE is the cluster's.)
#include <cstdlib>
#include <string>

#include "check/txn_validator.hpp"
#include "core/perseas.hpp"

namespace perseas::core {

void Perseas::init_observability() {
  if (config_.validate_writes || std::getenv("PERSEAS_VALIDATE_WRITES") != nullptr) {
    validator_ = std::make_unique<check::TxnValidator>();
  }
  if (const char* path = std::getenv("PERSEAS_METRICS")) env_metrics_path_ = path;
}

void Perseas::dump_env_metrics() const noexcept {
  if (env_metrics_path_.empty()) return;
  try {
    obs::MetricsRegistry reg;
    export_metrics(reg);
    reg.save(env_metrics_path_);
  } catch (...) {
    // Destructor path: a failed dump must not terminate the program.
  }
}

void Perseas::export_metrics(obs::MetricsRegistry& reg) const {
  sync::LockGuard lock(mu_);
  const PerseasStats st = stats_.merged();
  const std::string db = "db=\"" + config_.name + "\"";
  const auto count = [&](std::string_view name, std::string_view help, std::uint64_t v,
                         const std::string& labels) { reg.counter(name, help, labels).add(v); };

  count("perseas_txns_total", "Transactions finished, by outcome", st.txns_committed,
        db + ",outcome=\"committed\"");
  count("perseas_txns_total", "Transactions finished, by outcome", st.txns_aborted,
        db + ",outcome=\"aborted\"");
  count("perseas_txn_conflicts_total",
        "Operations rejected with TxnConflict, any abort reason", st.txns_conflicted, db);
  // Per-reason breakdown of the conflicts counter.  The kConflict share is
  // derived (total minus the named subsets), so the three series sum to
  // perseas_txn_conflicts_total by construction — checked by
  // tools/check-bench-json.py.
  const char* reject_help = "TxnConflict rejections, by abort reason";
  count("perseas_cc_rejections_total", reject_help,
        st.txns_conflicted - st.txns_wounded - st.txns_validation_failed,
        db + ",reason=\"conflict\"");
  count("perseas_cc_rejections_total", reject_help, st.txns_wounded,
        db + ",reason=\"wounded\"");
  count("perseas_cc_rejections_total", reject_help, st.txns_validation_failed,
        db + ",reason=\"validation_failed\"");
  count("perseas_cc_waits_total",
        "Charged waits taken before a conflict rejection (wait-die)", st.cc_waits, db);
  count("perseas_set_ranges_total", "set_range declarations", st.set_ranges, db);
  count("perseas_read_ranges_total", "read_range declarations joining a read set",
        st.read_ranges, db);
  count("perseas_undo_growths_total", "Undo-log doubling events", st.undo_growths, db);
  count("perseas_mirror_rebuilds_total", "rebuild_mirror invocations", st.mirror_rebuilds,
        db);

  // The per-channel byte counters the acceptance check compares against
  // PerseasStats: undo (local memcpy / remote push) and propagation.
  const char* bytes_help = "Bytes moved per PERSEAS channel";
  count("perseas_bytes_total", bytes_help, st.bytes_undo_local,
        db + ",channel=\"undo_local\"");
  count("perseas_bytes_total", bytes_help, st.bytes_undo_remote,
        db + ",channel=\"undo_remote\"");
  count("perseas_bytes_total", bytes_help, st.bytes_propagated,
        db + ",channel=\"propagate\"");

  // Write-set coalescing: savings and burst counts.  Always exported (all
  // zero when coalesce_ranges is off) so tools/check-bench-json.py can
  // require the series in both ablation legs.
  count("perseas_ranges_coalesced_total",
        "set_range declarations that overlapped the transaction's declared union",
        st.ranges_coalesced, db);
  const char* dedup_help = "Bytes write-set coalescing avoided moving, per channel";
  count("perseas_bytes_dedup_total", dedup_help, st.bytes_dedup_undo,
        db + ",channel=\"undo\"");
  count("perseas_bytes_dedup_total", dedup_help, st.bytes_dedup_propagated,
        db + ",channel=\"propagate\"");
  const char* writes_help = "Gathered SCI store operations, per channel";
  count("perseas_sci_writes_total", writes_help, st.undo_writes, db + ",channel=\"undo\"");
  count("perseas_sci_writes_total", writes_help, st.propagate_writes,
        db + ",channel=\"propagate\"");

  // Simulated nanoseconds per protocol phase (exact integers; figure 3's
  // cost decomposition).
  const char* phase_help = "Simulated nanoseconds spent per protocol phase";
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(st.time_local_undo),
        db + ",phase=\"local_undo\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(st.time_remote_undo), db + ",phase=\"remote_undo\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(st.time_propagation), db + ",phase=\"propagate\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(st.time_commit_flags), db + ",phase=\"commit_flags\"");
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(st.time_cc_wait),
        db + ",phase=\"cc_wait\"");
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(st.time_validate),
        db + ",phase=\"validate\"");

  reg.gauge("perseas_undo_capacity_bytes", "Current undo-log capacity", db)
      .set(static_cast<double>(undo_log_.capacity()));
  reg.gauge("perseas_undo_used_bytes", "Undo-log bytes occupied by the open transactions", db)
      .set(static_cast<double>(undo_log_.tail()));
  reg.gauge("perseas_open_txns_peak", "High-water mark of concurrently open transactions", db)
      .set(static_cast<double>(st.max_open_txns));
  reg.gauge("perseas_mirrors", "Configured replication degree", db)
      .set(static_cast<double>(mirror_set_.size()));
  reg.gauge("perseas_records", "Persistent records allocated", db)
      .set(static_cast<double>(records_.size()));

  // Recovery self-report (all-zero / absent gauges for fresh instances):
  // what the undo scan announced, verified and decided.
  if (recovery_.ran) {
    reg.gauge("perseas_recovery_announced_txn",
              "Transaction id the recovered metadata announced (0 = clean)", db)
        .set(static_cast<double>(recovery_.announced_txn));
    reg.gauge("perseas_recovery_checksum_ok",
              "1 when the announced undo prefix parsed and checksummed cleanly", db)
        .set(recovery_.checksum_ok ? 1.0 : 0.0);
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_scanned, db + ",verdict=\"scanned\"");
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_applied, db + ",verdict=\"applied\"");
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_discarded, db + ",verdict=\"discarded\"");
    count("perseas_recovery_bytes_scanned_total", "Undo-log bytes the recovery scan parsed",
          recovery_.bytes_scanned, db);
  }

  if (validator_) validator_->export_metrics(reg, db);
}

}  // namespace perseas::core

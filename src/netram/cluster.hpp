// The simulated network of workstations.
//
// Cluster owns the shared simulated clock, the nodes, the power supplies
// (one per node, the paper's deployment requirement; attach_power moves
// nodes onto a shared one), the SCI link model, and the failure injector.
// Every cross-node data movement and every charged local operation goes
// through this class, which is what guarantees uniform liveness checking
// and cost accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/thread_shards.hpp"
#include "netram/node.hpp"
#include "netram/sci_link.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/clock.hpp"
#include "sim/failure.hpp"
#include "sim/hardware_profile.hpp"
#include "sim/random.hpp"

namespace perseas::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::netram {

/// Aggregate traffic counters (per cluster; cheap to snapshot in benches).
/// Each thread books into its own shard; Cluster::stats() sums them.
struct NetworkStats {
  std::uint64_t remote_writes = 0;
  std::uint64_t remote_write_bytes = 0;
  std::uint64_t full_packets = 0;
  std::uint64_t partial_packets = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_read_bytes = 0;
  std::uint64_t control_rpcs = 0;
  std::uint64_t local_memcpys = 0;
  std::uint64_t local_memcpy_bytes = 0;
};

/// Field-wise sum (merges the per-thread shards).
NetworkStats& operator+=(NetworkStats& a, const NetworkStats& b) noexcept;

struct ClusterConfig {
  std::uint32_t node_count = 2;
  std::uint64_t arena_bytes_per_node = 64ull << 20;  // 64 MB, as in the paper
  std::uint64_t seed = 0x9e1998;
};

class Cluster {
 public:
  Cluster(const sim::HardwareProfile& profile, const ClusterConfig& config);

  /// Convenience: `node_count` nodes with defaults otherwise.
  Cluster(const sim::HardwareProfile& profile, std::uint32_t node_count);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  /// Writes the PERSEAS_TRACE file if the cluster still traces into the
  /// recorder it owns.
  ~Cluster();

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;

  [[nodiscard]] sim::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const sim::SimClock& clock() const noexcept { return clock_; }
  [[nodiscard]] sim::FailureInjector& failures() noexcept { return failures_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const sim::HardwareProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] const SciLinkModel& link() const noexcept { return link_; }
  /// The traffic counters, summed over the threads that booked them.  A
  /// snapshot: read it once the work it should count is done (after the
  /// worker threads joined).
  [[nodiscard]] NetworkStats stats() const { return stats_.merged(); }
  /// Zeroes the counters; call it while no other thread books traffic.
  void reset_stats() {
    stats_.for_each([](NetworkStats& s) { s = NetworkStats{}; });
  }

  // --- observability --------------------------------------------------------

  /// Attaches a trace recorder (or detaches with nullptr) — the one place
  /// a trace is attached: from then on every obs::ScopedCost on this
  /// cluster records its phase as a span on `track` (lane = worker).
  /// Replaces the recorder a PERSEAS_TRACE cluster owns (see the
  /// constructor).  Recording charges no simulated time; when unset a scope
  /// pays one null check.  Not owned.
  void set_trace(obs::TraceRecorder* trace, std::uint32_t track) noexcept;

  /// The always-on blackbox: a bounded ring of protocol events from every
  /// engine on this cluster (SCI bursts, node crashes, every failure-point
  /// firing; the PERSEAS core adds its own lifecycle events).  Recording
  /// charges no simulated time.  When the PERSEAS_BLACKBOX environment
  /// variable names a path, any note_anomaly() auto-dumps the ring there
  /// for tools/perseas-blackbox.py.
  [[nodiscard]] obs::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept { return flight_; }

  /// Attaches a cost ledger (or detaches with nullptr): the ledger becomes
  /// the clock's charge observer, so EVERY simulated nanosecond charged on
  /// this cluster lands in it (sum(ledger) == clock delta by construction),
  /// and the charged SCI movers attribute their payload bytes.  Not owned.
  void set_ledger(obs::CostLedger* ledger) noexcept;
  [[nodiscard]] obs::CostLedger* ledger() const noexcept { return sinks_.ledger; }

  /// What every obs::ScopedCost on this cluster reports to: the attached
  /// ledger and trace, and this cluster's clock.
  [[nodiscard]] const obs::CostSinks& sinks() const noexcept { return sinks_; }

  /// Folds NetworkStats (plus the simulated clock) into `reg` as netram_*
  /// metrics.  Call once per cluster per registry, at dump time.
  void export_metrics(obs::MetricsRegistry& reg) const;

  // --- failures ------------------------------------------------------------

  [[nodiscard]] std::uint32_t power_supply_count() const noexcept {
    return static_cast<std::uint32_t>(supplies_.size());
  }
  /// Adds a supply and returns its index.
  std::uint32_t add_power_supply(std::string name);
  /// Moves a node onto a given supply (for shared-supply experiments).
  void attach_power(NodeId node, std::uint32_t supply);
  /// Fails a supply: every attached node suffers a power outage.
  void fail_power_supply(std::uint32_t supply);
  void restore_power_supply(std::uint32_t supply);

  void crash_node(NodeId id, sim::FailureKind kind = sim::FailureKind::kSoftwareCrash);
  void restart_node(NodeId id);
  /// Node stalls for `d` of simulated time on its next access.
  void hang_node(NodeId id, sim::SimDuration d);

  // --- charged operations ---------------------------------------------------
  // All of these advance the simulated clock by the modelled cost and throw
  // sim::NodeCrashed if a required node is down.

  /// SCI remote write: `data` lands at `remote_offset` in `remote`'s arena.
  /// `optimized` selects the sci_memcpy aligned-64-byte path for sizes at
  /// or above SciLinkModel::min_optimized_copy_bytes().
  sim::SimDuration remote_write(NodeId local, NodeId remote, std::uint64_t remote_offset,
                                std::span<const std::byte> data,
                                StreamHint hint = StreamHint::kNewBurst, bool optimized = true);

  /// SCI remote read into `out` from `remote_offset` in `remote`'s arena.
  sim::SimDuration remote_read(NodeId local, NodeId remote, std::uint64_t remote_offset,
                               std::span<std::byte> out);

  /// Control-plane round trip (remote malloc / free / connect).
  sim::SimDuration control_rpc(NodeId local, NodeId remote);

  /// Local memcpy on `node` of `bytes` (source and destination both local).
  sim::SimDuration charge_local_memcpy(NodeId node, std::uint64_t bytes);

  /// Arbitrary charged CPU work on `node` (library bookkeeping, app logic).
  void charge_cpu(NodeId node, sim::SimDuration d);

  /// Throws sim::NodeCrashed if `id` is down; if the node is hung, advances
  /// the clock to the end of the hang first (service is delayed, data kept).
  void require_alive(NodeId id);

 private:
  sim::HardwareProfile profile_;
  SciLinkModel link_;
  sim::SimClock clock_;
  sim::FailureInjector failures_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<sim::PowerSupply> supplies_;
  /// Per-thread traffic counters (stats() merges them).
  sync::ThreadShards<NetworkStats> stats_;
  obs::FlightRecorder flight_;  ///< always-on; reads clock_ only
  obs::CostSinks sinks_;        ///< ledger and trace not owned; null = off
  /// Owned only when PERSEAS_TRACE names a path, and written there by the
  /// destructor.
  std::unique_ptr<obs::TraceRecorder> env_recorder_;
  std::string env_trace_path_;
};

}  // namespace perseas::netram

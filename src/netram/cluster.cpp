#include "netram/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/event_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perseas::netram {

NetworkStats& operator+=(NetworkStats& a, const NetworkStats& b) noexcept {
  static_assert(sizeof(NetworkStats) == 9 * sizeof(std::uint64_t),
                "a new NetworkStats field must join this merge");
  a.remote_writes += b.remote_writes;
  a.remote_write_bytes += b.remote_write_bytes;
  a.full_packets += b.full_packets;
  a.partial_packets += b.partial_packets;
  a.remote_reads += b.remote_reads;
  a.remote_read_bytes += b.remote_read_bytes;
  a.control_rpcs += b.control_rpcs;
  a.local_memcpys += b.local_memcpys;
  a.local_memcpy_bytes += b.local_memcpy_bytes;
  return a;
}

Cluster::Cluster(const sim::HardwareProfile& profile, const ClusterConfig& config)
    : profile_(profile),
      link_(profile.sci),
      // Every injector firing — any engine, any layer — lands in the
      // blackbox, under the point's registry index as its string id.  The
      // observer runs before armed actions, so a crash-injecting action
      // still leaves its firing on record.
      failures_([this](core::points::PointId point, std::uint64_t hits) {
        flight_.record(core::EventKind::kFailurePoint, 0, point.index(), hits);
      }),
      rng_(config.seed),
      flight_(clock_) {
  if (config.node_count == 0) throw std::invalid_argument("Cluster: need at least one node");
  nodes_.reserve(config.node_count);
  for (std::uint32_t i = 0; i < config.node_count; ++i) {
    const std::uint32_t supply = add_power_supply("ups-" + std::to_string(i));
    nodes_.push_back(std::make_unique<Node>(i, "node-" + std::to_string(i),
                                            config.arena_bytes_per_node, supply));
  }
  if (const char* path = std::getenv("PERSEAS_BLACKBOX"); path != nullptr && *path != '\0') {
    flight_.set_dump_path(path);
  }
  sinks_.clock = &clock_;
  // PERSEAS_TRACE=<path> traces any program without code changes: the
  // cluster owns a recorder and writes it at destruction, unless
  // set_trace has replaced it by then (a bench's own trace, say).
  if (const char* path = std::getenv("PERSEAS_TRACE"); path != nullptr && *path != '\0') {
    env_recorder_ = std::make_unique<obs::TraceRecorder>();
    env_trace_path_ = path;
    set_trace(env_recorder_.get(), env_recorder_->register_track("cluster"));
  }
}

Cluster::~Cluster() {
  if (env_recorder_ == nullptr || sinks_.trace != env_recorder_.get()) return;
  try {
    env_recorder_->save(env_trace_path_);
  } catch (...) {
    // Destructor path: a failed dump must not terminate the program.
  }
}

Cluster::Cluster(const sim::HardwareProfile& profile, std::uint32_t node_count)
    : Cluster(profile, ClusterConfig{.node_count = node_count}) {}

Node& Cluster::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("Cluster::node: bad id");
  return *nodes_[id];
}

const Node& Cluster::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Cluster::node: bad id");
  return *nodes_[id];
}

std::uint32_t Cluster::add_power_supply(std::string name) {
  supplies_.push_back(sim::PowerSupply{std::move(name), false});
  return static_cast<std::uint32_t>(supplies_.size() - 1);
}

void Cluster::attach_power(NodeId node_id, std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("Cluster::attach_power: bad supply");
  node(node_id).attach_power_supply(supply);
}

void Cluster::fail_power_supply(std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("fail_power_supply: bad supply");
  supplies_[supply].failed = true;
  for (auto& n : nodes_) {
    if (n->power_supply() == supply && !n->crashed()) {
      n->crash(sim::FailureKind::kPowerOutage);
      flight_.record(core::EventKind::kNodeCrash, 0, n->id(),
                     static_cast<std::uint64_t>(sim::FailureKind::kPowerOutage));
    }
  }
}

void Cluster::restore_power_supply(std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("restore_power_supply: bad supply");
  supplies_[supply].failed = false;
}

void Cluster::crash_node(NodeId id, sim::FailureKind kind) {
  node(id).crash(kind);
  flight_.record(core::EventKind::kNodeCrash, 0, id, static_cast<std::uint64_t>(kind));
}

void Cluster::restart_node(NodeId id) {
  Node& n = node(id);
  if (n.power_supply() < supplies_.size() && supplies_[n.power_supply()].failed) {
    throw std::logic_error("restart_node: power supply " +
                           supplies_[n.power_supply()].name + " is still down");
  }
  n.restart();
}

void Cluster::hang_node(NodeId id, sim::SimDuration d) {
  node(id).hang_until(clock_.now() + d);
}

void Cluster::require_alive(NodeId id) {
  Node& n = node(id);
  if (n.crashed()) throw sim::NodeCrashed(id, n.last_failure(), "");
  if (n.hang_until() > clock_.now()) {
    // A hung node delays service but loses nothing (paper section 1).
    clock_.advance(n.hang_until() - clock_.now());
  }
}

sim::SimDuration Cluster::remote_write(NodeId local, NodeId remote, std::uint64_t remote_offset,
                                       std::span<const std::byte> data, StreamHint hint,
                                       bool optimized) {
  require_alive(local);
  require_alive(remote);
  if (data.empty()) return 0;

  const SciStoreBreakdown b = optimized
                                  ? link_.optimized_store_burst(remote_offset, data.size(), hint)
                                  : link_.store_burst(remote_offset, data.size(), hint);
  clock_.advance(b.total);

  auto dst = node(remote).mem(remote_offset, data.size());
  std::memcpy(dst.data(), data.data(), data.size());

  NetworkStats& stats = stats_.local();
  ++stats.remote_writes;
  stats.remote_write_bytes += data.size();
  stats.full_packets += b.full_packets;
  stats.partial_packets += b.partial_packets;
  flight_.record(core::EventKind::kSciBurst, 0, remote, data.size(), 1);
  if (sinks_.ledger != nullptr) sinks_.ledger->add_bytes(data.size());
  return b.total;
}

sim::SimDuration Cluster::remote_read(NodeId local, NodeId remote, std::uint64_t remote_offset,
                                      std::span<std::byte> out) {
  require_alive(local);
  require_alive(remote);
  if (out.empty()) return 0;

  const sim::SimDuration cost = link_.read_burst(remote_offset, out.size());
  clock_.advance(cost);

  auto src = node(remote).mem(remote_offset, out.size());
  std::memcpy(out.data(), src.data(), out.size());

  NetworkStats& stats = stats_.local();
  ++stats.remote_reads;
  stats.remote_read_bytes += out.size();
  flight_.record(core::EventKind::kSciBurst, 0, remote, out.size(), 0);
  if (sinks_.ledger != nullptr) sinks_.ledger->add_bytes(out.size());
  return cost;
}

sim::SimDuration Cluster::control_rpc(NodeId local, NodeId remote) {
  require_alive(local);
  require_alive(remote);
  const sim::SimDuration cost = profile_.sci.control_rtt;
  clock_.advance(cost);
  ++stats_.local().control_rpcs;
  return cost;
}

sim::SimDuration Cluster::charge_local_memcpy(NodeId node_id, std::uint64_t bytes) {
  require_alive(node_id);
  const sim::SimDuration cost =
      profile_.memory.memcpy_fixed + sim::transfer_time(bytes, profile_.memory.memcpy_bytes_per_sec);
  clock_.advance(cost);
  NetworkStats& stats = stats_.local();
  ++stats.local_memcpys;
  stats.local_memcpy_bytes += bytes;
  return cost;
}

void Cluster::charge_cpu(NodeId node_id, sim::SimDuration d) {
  require_alive(node_id);
  clock_.advance(d);
}

void Cluster::set_ledger(obs::CostLedger* ledger) noexcept {
  sinks_.ledger = ledger;
  clock_.set_observer(ledger);
}

void Cluster::set_trace(obs::TraceRecorder* trace, std::uint32_t track) noexcept {
  sinks_.trace = trace;
  sinks_.track = track;
}

void Cluster::export_metrics(obs::MetricsRegistry& reg) const {
  const auto count = [&](std::string_view name, std::string_view help, std::uint64_t v,
                         std::string_view labels = "") { reg.counter(name, help, labels).add(v); };
  const NetworkStats s = stats();
  count("netram_remote_writes_total", "SCI store bursts", s.remote_writes);
  count("netram_remote_reads_total", "SCI read bursts", s.remote_reads);
  count("netram_control_rpcs_total", "Control-plane round trips", s.control_rpcs);
  count("netram_local_memcpys_total", "Charged local memory copies", s.local_memcpys);
  const char* bytes_help = "Bytes moved per netram channel";
  count("netram_bytes_total", bytes_help, s.remote_write_bytes,
        "channel=\"remote_write\"");
  count("netram_bytes_total", bytes_help, s.remote_read_bytes, "channel=\"remote_read\"");
  count("netram_bytes_total", bytes_help, s.local_memcpy_bytes,
        "channel=\"local_memcpy\"");
  const char* pkt_help = "SCI packets per kind (figure 4's cost split)";
  count("netram_sci_packets_total", pkt_help, s.full_packets, "kind=\"full\"");
  count("netram_sci_packets_total", pkt_help, s.partial_packets, "kind=\"partial\"");
  reg.gauge("netram_sim_clock_ns", "Simulated clock at dump time")
      .set(static_cast<double>(clock_.now()));
  reg.gauge("netram_nodes", "Workstations in the cluster")
      .set(static_cast<double>(nodes_.size()));
}

}  // namespace perseas::netram

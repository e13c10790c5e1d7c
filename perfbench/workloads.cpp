#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/conflict_table.hpp"
#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "sim/clock.hpp"
#include "sim/failure.hpp"
#include "sim/hardware_profile.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace perfbench {
namespace {

using namespace perseas;

// Every workload runs on three workstations: the primary, the mirror
// server, and a spare that recovery moves the database to.
constexpr netram::NodeId kPrimary = 0;
constexpr netram::NodeId kMirror = 1;
constexpr netram::NodeId kSpare = 2;

// Each run builds its fixture afresh kRounds times (each setup is one
// setup_s sample), and each round runs its share of transactions and then
// of recovery cycles.  Pooling the rounds' host windows and cycles spreads
// them over the whole run and over four placements of the simulated nodes'
// memory, so neither one stretch of interference nor one placement decides
// a run's host figures.
constexpr int kRounds = 4;
constexpr std::size_t kLaneSpans = 1u << 17;  // per worker, traced run
constexpr std::uint32_t kThreads = 4;
constexpr std::uint64_t kSerialBatch = 64;    // deadline checked between batches
constexpr std::uint64_t kZipfBatch = 250;     // txns per thread per run_contention call
constexpr std::uint64_t kLedgerBatch = 100;   // per run_mt_debit_credit call, fresh ledger each
constexpr std::uint64_t kCycleTxns = 100;     // crash_recover commits per cycle
constexpr std::uint64_t kCycleTxnBytes = 256;
constexpr std::uint64_t kCrashDbBytes = 4ull << 20;
constexpr int kMinCycles = 3;
// Host transaction figures are taken per window of this many commits
// (crash_recover: one window per cycle).  With one client a run reports one
// second over the window median latency kQuietWindow from the fast end.
// The median inside a window ignores the few transactions that meet a
// stolen time slice or caches a crash cycle has just emptied.  Other
// tenants of a shared host slow windows down for stretches of seconds that
// can fill most of a run (crash_recover's per-cycle rate drops by a third
// in them), so the fast end is the program's own cost, which is what a
// code change moves.  With several client threads, where each batch's
// threads land on the shared CPUs is part of what the clients see, a run
// reports the median window's throughput.  Crash cycles, bound by memory
// bandwidth, are reported by their median.
constexpr std::uint64_t kWindowTxns = 500;
constexpr double kQuietWindow = 0.01;

// bench_table1_macro's 16,823,608-byte debit-credit row.
constexpr double kTable1MeanUs = 42.34;
constexpr double kAnchorTolerance = 0.01;

// Shares of --seconds, split over the rounds.  Untraced: transactions,
// then recovery cycles.  Traced: an untraced phase; on the last round also
// (dc_mt_ledger) a phase without the ledger and a traced phase that ends
// early once a span lane is full; recovery cycles.
constexpr double kTailShare = 0.25;
constexpr double kTracedUntracedShare = 0.35;
constexpr double kTracedShare = 0.25;
constexpr double kNoLedgerShare = 0.15;

[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

[[nodiscard]] double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The library counters a workload reads: PerseasStats plus NetworkStats.
struct Counters {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t conflicted = 0;
  std::uint64_t undo_remote_bytes = 0;
  std::uint64_t propagated_bytes = 0;
  std::uint64_t undo_growths = 0;
  sim::SimDuration local_undo_ns = 0;
  sim::SimDuration remote_undo_ns = 0;
  sim::SimDuration propagation_ns = 0;
  sim::SimDuration flags_ns = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t remote_write_bytes = 0;
  std::uint64_t partial_packets = 0;
  std::uint64_t local_memcpy_bytes = 0;

  static Counters of(const core::PerseasStats& p, const netram::NetworkStats& n) {
    Counters c;
    c.committed = p.txns_committed;
    c.aborted = p.txns_aborted;
    c.conflicted = p.txns_conflicted;
    c.undo_remote_bytes = p.bytes_undo_remote;
    c.propagated_bytes = p.bytes_propagated;
    c.undo_growths = p.undo_growths;
    c.local_undo_ns = p.time_local_undo;
    c.remote_undo_ns = p.time_remote_undo;
    c.propagation_ns = p.time_propagation;
    c.flags_ns = p.time_commit_flags;
    c.remote_writes = n.remote_writes;
    c.remote_write_bytes = n.remote_write_bytes;
    c.partial_packets = n.partial_packets;
    c.local_memcpy_bytes = n.local_memcpy_bytes;
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters c = *this;
    c.committed -= o.committed;
    c.aborted -= o.aborted;
    c.conflicted -= o.conflicted;
    c.undo_remote_bytes -= o.undo_remote_bytes;
    c.propagated_bytes -= o.propagated_bytes;
    c.undo_growths -= o.undo_growths;
    c.local_undo_ns -= o.local_undo_ns;
    c.remote_undo_ns -= o.remote_undo_ns;
    c.propagation_ns -= o.propagation_ns;
    c.flags_ns -= o.flags_ns;
    c.remote_writes -= o.remote_writes;
    c.remote_write_bytes -= o.remote_write_bytes;
    c.partial_packets -= o.partial_packets;
    c.local_memcpy_bytes -= o.local_memcpy_bytes;
    return c;
  }

  Counters& operator+=(const Counters& o) {
    committed += o.committed;
    aborted += o.aborted;
    conflicted += o.conflicted;
    undo_remote_bytes += o.undo_remote_bytes;
    propagated_bytes += o.propagated_bytes;
    undo_growths += o.undo_growths;
    local_undo_ns += o.local_undo_ns;
    remote_undo_ns += o.remote_undo_ns;
    propagation_ns += o.propagation_ns;
    flags_ns += o.flags_ns;
    remote_writes += o.remote_writes;
    remote_write_bytes += o.remote_write_bytes;
    partial_packets += o.partial_packets;
    local_memcpy_bytes += o.local_memcpy_bytes;
    return *this;
  }

  bool operator==(const Counters&) const = default;
};

/// What the transactions of one phase (or several) did, on both clocks.
struct TxnTally {
  std::uint64_t commits = 0;
  /// Simulated latency of every commit, kept only where percentiles are
  /// reported (traced runs), so untraced memory does not grow with the run.
  bool keep_sim_samples = false;
  std::vector<double> sim_us;
  double sim_sum_us = 0.0;
  std::uint64_t sim_count = 0;
  std::vector<double> window_txn_per_s;  ///< host throughput of each window
  std::vector<double> window_p50_us;     ///< host median latency of each window
  std::uint64_t window_txns = kWindowTxns;
  /// Host latencies a batch measured itself, used instead of the engine's
  /// (dc_serial: the whole run_one, workload code included).
  std::vector<std::int64_t> own_latency_ns;
  sim::SimDuration makespan_ns = 0;
  sim::SimDuration total_work_ns = 0;
  std::vector<sim::SimDuration> worker_busy_ns;
  Counters counters;

  /// Adds `commits` transactions that took `ns` of host time, with their
  /// host latencies; closes a window every window_txns commits.
  void add_host(const std::vector<std::int64_t>& latency_ns, std::int64_t ns,
                std::uint64_t commits) {
    for (const std::int64_t l : latency_ns) window_us_.push_back(static_cast<double>(l) / 1e3);
    window_ns_ += ns;
    window_commits_ += commits;
    if (window_commits_ >= window_txns) close_window();
  }
  /// Closes a trailing window of at least half the usual size.
  void end_phase() {
    if (window_commits_ >= window_txns / 2) close_window();
    window_us_.clear();
    window_ns_ = 0;
    window_commits_ = 0;
  }
  void add_sim(sim::SimDuration d) {
    sim_sum_us += sim::to_us(d);
    ++sim_count;
    if (keep_sim_samples) sim_us.push_back(sim::to_us(d));
  }
  void add_busy(std::uint32_t worker, sim::SimDuration d) {
    if (worker_busy_ns.size() <= worker) worker_busy_ns.resize(worker + 1, 0);
    worker_busy_ns[worker] += d;
  }
  void merge(const TxnTally& o) {
    commits += o.commits;
    sim_us.insert(sim_us.end(), o.sim_us.begin(), o.sim_us.end());
    sim_sum_us += o.sim_sum_us;
    sim_count += o.sim_count;
    window_txn_per_s.insert(window_txn_per_s.end(), o.window_txn_per_s.begin(),
                            o.window_txn_per_s.end());
    window_p50_us.insert(window_p50_us.end(), o.window_p50_us.begin(), o.window_p50_us.end());
    makespan_ns += o.makespan_ns;
    total_work_ns += o.total_work_ns;
    for (std::size_t w = 0; w < o.worker_busy_ns.size(); ++w) add_busy(w, o.worker_busy_ns[w]);
    counters += o.counters;
  }

 private:
  void close_window() {
    window_txn_per_s.push_back(ratio(static_cast<double>(window_commits_) * 1e9,
                                     static_cast<double>(window_ns_)));
    window_p50_us.push_back(quantile(window_us_, 0.50));
    window_us_.clear();
    window_ns_ = 0;
    window_commits_ = 0;
  }

  std::vector<double> window_us_;
  std::int64_t window_ns_ = 0;
  std::uint64_t window_commits_ = 0;
};

/// Crash→recover→restart cycles of one PERSEAS database (record 0) whose
/// mirror lives on kMirror.  Every cycle starts with a commit that dies
/// after copying its range to the mirror, so recovery always has a
/// transaction to roll back.  Primary and spare swap every cycle: the dead
/// node restarts and becomes the next spare.
class Failover {
 public:
  struct Tally {
    std::uint64_t cycles = 0;
    std::vector<double> cycle_ms;
    std::vector<double> crash_ms;
    std::vector<double> recover_ms;
    std::vector<double> restart_ms;
    std::vector<double> recover_sim_ms;
    std::uint64_t remote_read_bytes = 0;
    std::uint64_t entries_scanned = 0;
    std::uint64_t entries_applied = 0;

    void merge(const Tally& o) {
      cycles += o.cycles;
      for (auto [to, from] : {std::pair{&cycle_ms, &o.cycle_ms}, {&crash_ms, &o.crash_ms},
                              {&recover_ms, &o.recover_ms}, {&restart_ms, &o.restart_ms},
                              {&recover_sim_ms, &o.recover_sim_ms}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      remote_read_bytes += o.remote_read_bytes;
      entries_scanned += o.entries_scanned;
      entries_applied += o.entries_applied;
    }
  };

  /// `primary` is the running instance (on kPrimary), or nullptr to
  /// create() one.
  Failover(netram::Cluster& cluster, netram::RemoteMemoryServer& server,
           core::PerseasConfig config, core::Perseas* primary)
      : cluster_(&cluster), server_(&server), config_(std::move(config)), current_(primary) {}

  /// A fresh database of one `bytes`-byte record on the primary.
  void create(std::uint64_t bytes) {
    db_.emplace(*cluster_, primary_, std::vector{server_}, config_);
    (void)db_->persistent_malloc(bytes);
    db_->init_remote_db();
    current_ = &*db_;
  }

  /// The running instance.
  [[nodiscard]] core::Perseas& db() noexcept { return *current_; }

  /// One cycle: a transaction of 256 B .. 16 KB at a random offset dies
  /// in its commit after the range copy; recovery onto the spare must
  /// roll it back so that record 0 equals `shadow` (the committed state);
  /// then the dead node restarts.  Returns an empty string, or what failed.
  std::string cycle(std::span<const std::byte> shadow, sim::Rng& rng, Lane* lane) {
    const std::int64_t start = host_ns();
    const ScopedSpan span(lane, "workload.cycle");
    bool crashed = false;
    {
      const core::RecordHandle rec = current_->record(0);
      const std::uint64_t size = std::min<std::uint64_t>((rng.below(64) + 1) * 256, rec.size());
      const std::uint64_t offset = rng.below(rec.size() - size + 1);
      cluster_->failures().arm("perseas.commit.after_range_copy", [this, lane] {
        crash_primary(lane);
        throw sim::NodeCrashed(primary_, sim::FailureKind::kSoftwareCrash, "perfbench");
      });
      try {
        core::Transaction txn = current_->begin_transaction();
        txn.set_range(rec, offset, size);
        std::memset(rec.bytes().data() + offset, static_cast<int>(rng.below(255) + 1), size);
        txn.commit();
      } catch (const sim::NodeCrashed&) {
        crashed = true;
      }
    }
    if (!crashed) return "the armed commit did not crash the primary";
    current_ = nullptr;
    db_.reset();
    const std::uint64_t reads0 = cluster_->stats().remote_read_bytes;
    const sim::SimTime sim0 = cluster_->clock().now();
    {
      const ScopedSpan s(lane, "core.recover");
      const std::int64_t t0 = host_ns();
      db_.emplace(core::Perseas::RecoverTag{}, *cluster_, spare_, std::vector{server_}, config_);
      tally_.recover_ms.push_back(static_cast<double>(host_ns() - t0) / 1e6);
    }
    current_ = &*db_;
    tally_.recover_sim_ms.push_back(sim::to_ms(cluster_->clock().now() - sim0));
    tally_.remote_read_bytes += cluster_->stats().remote_read_bytes - reads0;
    const core::RecoveryReport report = db_->recovery_report();
    tally_.entries_scanned += report.entries_scanned;
    tally_.entries_applied += report.entries_applied;
    const std::span<const std::byte> got = db_->record(0).bytes();
    const bool same = got.size() == shadow.size() &&
                      std::memcmp(got.data(), shadow.data(), shadow.size()) == 0;
    {
      const ScopedSpan s(lane, "netram.restart_node");
      const std::int64_t t0 = host_ns();
      cluster_->restart_node(primary_);
      tally_.restart_ms.push_back(static_cast<double>(host_ns() - t0) / 1e6);
    }
    std::swap(primary_, spare_);
    tally_.cycle_ms.push_back(static_cast<double>(host_ns() - start) / 1e6);
    ++tally_.cycles;
    return same ? "" : "recovered database differs from the committed state";
  }

  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

 private:
  void crash_primary(Lane* lane) {
    const ScopedSpan s(lane, "netram.crash_node");
    const std::int64_t t0 = host_ns();
    cluster_->crash_node(primary_, sim::FailureKind::kSoftwareCrash);
    tally_.crash_ms.push_back(static_cast<double>(host_ns() - t0) / 1e6);
  }

  netram::Cluster* cluster_;
  netram::RemoteMemoryServer* server_;
  core::PerseasConfig config_;
  core::Perseas* current_;
  netram::NodeId primary_ = kPrimary;
  netram::NodeId spare_ = kSpare;
  std::optional<core::Perseas> db_;
  Tally tally_;
};

/// The state of one run, and what it reports.
class Run {
 public:
  explicit Run(const RunOptions& o) : opt(o), failure_rng(o.seed ^ 0xfa11'0fe5) {
    if (o.trace) spans.emplace(kThreads, kLaneSpans);
    untraced.keep_sim_samples = o.trace;
    traced.keep_sim_samples = true;
  }

  /// Records a correctness check; a failed one fails `ops` operations.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1) {
    if (ok) return;
    result.correct = false;
    result.failed += ops;
    std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n", opt.workload.c_str(),
                 what.c_str());
  }

  /// Host time at which a phase given `share` of --seconds ends.
  [[nodiscard]] std::int64_t deadline(double share) const {
    return host_ns() + static_cast<std::int64_t>(share * opt.seconds * 1e9);
  }

  [[nodiscard]] SpanRecorder* recorder() { return spans ? &*spans : nullptr; }
  [[nodiscard]] Lane* main_lane(bool traced) {
    return traced && spans ? spans->lane(0) : nullptr;
  }

  void add(const char* name, double value, const char* unit) {
    result.metrics.push_back(Metric{name, value, unit});
  }

  const RunOptions& opt;
  RunResult result;
  std::optional<SpanRecorder> spans;

  // Filled by the workloads, turned into metrics by report_end_to_end() or
  // report_per_layer().
  std::vector<double> setup_s;
  std::vector<double> cluster_ctor_ms;
  bool multi_client = false;  ///< host figures from windows, not transactions
  TxnTally untraced;  ///< end-to-end phase(s), spans off
  TxnTally traced;    ///< traced phase (trace runs only)
  Failover::Tally recovery;
  sim::Rng failure_rng;  ///< the doomed transactions of the recovery tails
  double wasted_attempt_ns = 0.0;
  std::uint64_t aborted_attempts = 0;
  // dc_mt_ledger
  std::vector<double> ledger_rows;
  double ledger_unattributed_ns = 0.0;
  double ledger_total_ns = 0.0;
  double host_ns_per_txn_ledger = 0.0;
  double host_ns_per_txn_no_ledger = 0.0;
};

void print_config(const core::Perseas& db) {
  const core::PerseasConfig& c = db.config();
  const char* cc = "fww";
  switch (c.cc_policy) {
    case core::CcPolicyKind::kFirstWriterWins: cc = "fww"; break;
    case core::CcPolicyKind::kWaitDie: cc = "wait-die"; break;
    case core::CcPolicyKind::kValidateAtCommit: cc = "validate"; break;
  }
  std::fprintf(stderr,
               "perfbench: effective PerseasConfig: name=%s undo_capacity=%llu "
               "eager_remote_undo=%d optimized_sci_memcpy=%d coalesce_ranges=%d "
               "validating=%d cc_policy=%s mirrors=%u\n",
               c.name.c_str(), static_cast<unsigned long long>(c.undo_capacity),
               c.eager_remote_undo ? 1 : 0, c.optimized_sci_memcpy ? 1 : 0,
               c.coalesce_ranges ? 1 : 0, db.validating() ? 1 : 0, cc, db.mirror_count());
}

std::unique_ptr<netram::Cluster> make_cluster(Run& run) {
  netram::ClusterConfig cc;
  cc.node_count = 3;
  cc.seed = 0x1998;  // workload::EngineLab's default
  const std::int64_t t0 = host_ns();
  auto cluster = std::make_unique<netram::Cluster>(sim::HardwareProfile::forth_1997(), cc);
  run.cluster_ctor_ms.push_back(static_cast<double>(host_ns() - t0) / 1e6);
  return cluster;
}

/// Builds a fixture and records the time as one setup_s sample: host time
/// from before the cluster exists to the first measured operation.
template <typename Make>
auto timed_build(Run& run, Make make) {
  const std::int64_t t0 = host_ns();
  auto fixture = make();
  run.setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
  return fixture;
}

/// Each round's share of the untraced transaction phase.
[[nodiscard]] double round_share(const Run& run) {
  return (run.opt.trace ? kTracedUntracedShare : 1.0 - kTailShare) / kRounds;
}

// --- the three engine workloads ---------------------------------------------

/// PERSEAS behind the span decorator, with its mirror and a spare node.
struct EngineRig {
  std::unique_ptr<netram::Cluster> cluster;
  std::unique_ptr<netram::RemoteMemoryServer> server;
  std::unique_ptr<workload::PerseasEngine> perseas;
  std::unique_ptr<TracedEngine> engine;
  std::unique_ptr<workload::DebitCredit> bank;
  core::PerseasConfig config;

  [[nodiscard]] Counters counters() {
    return Counters::of(perseas->perseas().stats(), cluster->stats());
  }
};

std::unique_ptr<EngineRig> make_rig(Run& run, std::uint64_t db_size, core::PerseasConfig config,
                                    const workload::DebitCreditOptions* bank,
                                    std::uint64_t bank_seed) {
  auto rig = std::make_unique<EngineRig>();
  rig->config = config;
  rig->cluster = make_cluster(run);
  rig->server = std::make_unique<netram::RemoteMemoryServer>(*rig->cluster, kMirror);
  rig->perseas = std::make_unique<workload::PerseasEngine>(
      *rig->cluster, kPrimary, std::vector{rig->server.get()}, db_size, std::move(config));
  rig->engine = std::make_unique<TracedEngine>(*rig->perseas);
  if (bank != nullptr) {
    rig->bank = std::make_unique<workload::DebitCredit>(*rig->engine, *bank, bank_seed);
    rig->bank->load();
  }
  (void)rig->engine->take_latencies();  // the load is setup, not a measured transaction
  return rig;
}

/// One batch of closed-loop transactions on the rig; adds to the tally.
using Batch = std::function<void(EngineRig&, TxnTally&, Lane*)>;

/// Runs `batch` until the phase's share of --seconds is used (or, traced,
/// until a span lane is full) and folds host latencies and counters in.
void txn_phase(Run& run, EngineRig& rig, TxnTally& tally, double share, bool traced,
               const Batch& batch) {
  SpanRecorder* rec = traced ? run.recorder() : nullptr;
  rig.engine->set_recorder(rec);
  const Counters c0 = rig.counters();
  const std::int64_t end = run.deadline(share);
  std::int64_t now = host_ns();
  do {
    const std::int64_t t0 = now;
    const std::uint64_t commits0 = tally.commits;
    batch(rig, tally, run.main_lane(traced));
    now = host_ns();
    std::vector<std::int64_t> latency_ns = rig.engine->take_latencies();
    if (!tally.own_latency_ns.empty()) latency_ns = std::exchange(tally.own_latency_ns, {});
    tally.add_host(latency_ns, now - t0, tally.commits - commits0);
  } while (now < end && !(rec != nullptr && rec->full()));
  tally.end_phase();
  rig.engine->set_recorder(nullptr);
  tally.counters += rig.counters() - c0;
}

/// A round's transaction phases: its share of the untraced phase and, on
/// the last round of a traced run, the traced phase.
void engine_round(Run& run, EngineRig& rig, const Batch& batch, bool last) {
  txn_phase(run, rig, run.untraced, round_share(run), false, batch);
  if (last && run.opt.trace) txn_phase(run, rig, run.traced, kTracedShare, true, batch);
  run.wasted_attempt_ns += static_cast<double>(rig.engine->wasted_ns());
  run.aborted_attempts += rig.engine->aborted_attempts();
}

/// Recovery cycles on the rig's final state, for a round's share of the
/// tail; traced on the last round of a traced run.
void recovery_tail(Run& run, EngineRig& rig, bool last) {
  const std::span<const std::byte> live = rig.engine->db();
  const std::vector<std::byte> shadow(live.begin(), live.end());
  Failover failover(*rig.cluster, *rig.server, rig.config, &rig.perseas->perseas());
  Lane* lane = run.main_lane(last && run.opt.trace);
  const std::int64_t end = run.deadline(kTailShare / kRounds);
  for (int i = 0; i < kMinCycles || host_ns() < end; ++i) {
    ++run.result.attempted;
    const std::string problem = failover.cycle(shadow, run.failure_rng, lane);
    run.check(problem.empty(), problem);
  }
  run.recovery.merge(failover.tally());
}

void check_bank(Run& run, const workload::DebitCredit& bank) {
  try {
    bank.check_invariants();
  } catch (const std::logic_error& e) {
    run.check(false, e.what());
  }
}

workload::DebitCreditOptions table1_bank() {
  workload::DebitCreditOptions o;  // 4 branches x 10 tellers
  o.accounts_per_branch = 40'000;  // 16,823,608-byte database
  return o;
}

void dc_serial(Run& run) {
  const workload::DebitCreditOptions bank = table1_bank();
  core::PerseasConfig config;
  config.undo_capacity = 4 << 20;
  const std::uint64_t db_size = workload::DebitCredit::required_db_size(bank);
  const auto make = [&] { return make_rig(run, db_size, config, &bank, run.opt.seed); };

  // Two fixtures run the same seeded probe: their counters must repeat
  // exactly.
  std::optional<Counters> probe;
  for (int i = 0; i < 2; ++i) {
    const auto rig = timed_build(run, make);
    const Counters c0 = rig->counters();
    (void)rig->bank->run(2'000);
    run.result.attempted += 2'000;
    const Counters c = rig->counters() - c0;
    if (probe) {
      run.check(c == *probe, "PerseasStats/NetworkStats differ across two same-seed runs");
    }
    probe = c;
  }

  const Batch batch = [](EngineRig& rig, TxnTally& t, Lane* lane) {
    for (std::uint64_t i = 0; i < kSerialBatch; ++i) {
      const ScopedSpan span(lane, "workload.run_one");
      const std::int64_t t0 = host_ns();
      const sim::SimDuration d = rig.bank->run_one();
      t.own_latency_ns.push_back(host_ns() - t0);
      t.add_sim(d);
      t.makespan_ns += d;
      t.total_work_ns += d;
      t.add_busy(0, d);
    }
    t.commits += kSerialBatch;
  };
  for (int r = 0; r < kRounds; ++r) {
    const auto rig = timed_build(run, make);
    if (r == 0) print_config(rig->perseas->perseas());
    const bool last = r + 1 == kRounds;
    engine_round(run, *rig, batch, last);
    check_bank(run, *rig->bank);
    recovery_tail(run, *rig, last);
  }
  run.result.attempted += run.untraced.commits + run.traced.commits;
  const double mean_us =
      ratio(run.untraced.sim_sum_us, static_cast<double>(run.untraced.sim_count));
  run.check(std::abs(mean_us - kTable1MeanUs) <= kAnchorTolerance * kTable1MeanUs,
            "mean simulated latency " + std::to_string(mean_us) +
                " us is not within 1% of table 1's 42.34 us");
}

void zipf_rw(Run& run) {
  run.multi_client = true;
  workload::ContentionOptions co;
  co.threads = kThreads;
  co.txns_per_thread = kZipfBatch;
  co.rows = 4'096;
  co.row_bytes = 64;
  co.theta = 0.9;
  co.write_ratio = 0.5;
  co.short_ops = 4;
  co.long_ops = 32;
  co.long_fraction = 0.1;
  const std::uint64_t db_size = co.rows * co.row_bytes;

  std::uint64_t batches = 0;
  const Batch batch = [&](EngineRig& rig, TxnTally& t, Lane*) {
    co.seed = run.opt.seed * 1'000'003 + batches++;
    const workload::ContentionResult r = workload::run_contention(*rig.engine, co);
    run.check(r.commits == co.threads * co.txns_per_thread, "a contention batch fell short",
              co.threads * co.txns_per_thread - r.commits);
    t.commits += r.commits;
    t.makespan_ns += r.makespan_ns;
    t.total_work_ns += r.total_work_ns;
    for (const workload::ContentionWorkerResult& w : r.workers) {
      t.add_busy(w.worker, w.busy_ns);
      for (const sim::SimDuration d : w.latencies) t.add_sim(d);
    }
  };
  for (int r = 0; r < kRounds; ++r) {
    const auto rig = timed_build(
        run, [&] { return make_rig(run, db_size, core::PerseasConfig{}, nullptr, 0); });
    if (r == 0) print_config(rig->perseas->perseas());
    const bool last = r + 1 == kRounds;
    engine_round(run, *rig, batch, last);
    // Every write covers a whole row with one byte value, so a committed
    // row is uniform; a torn row means two writers overlapped.
    const std::span<const std::byte> db = rig->engine->db();
    std::uint64_t torn = 0;
    for (std::uint64_t row = 0; row < co.rows; ++row) {
      const std::span<const std::byte> bytes = db.subspan(row * co.row_bytes, co.row_bytes);
      if (std::any_of(bytes.begin(), bytes.end(), [&](std::byte b) { return b != bytes[0]; })) {
        ++torn;
      }
    }
    run.check(torn == 0, std::to_string(torn) + " rows hold bytes of two writers");
    recovery_tail(run, *rig, last);
  }
  const TxnTally& u = run.untraced;
  const TxnTally& tr = run.traced;
  run.result.attempted += u.commits + tr.commits;
  run.check(u.counters.committed + tr.counters.committed == u.commits + tr.commits,
            "PerseasStats commits differ from run_contention's");
  run.check(u.counters.aborted + tr.counters.aborted == run.aborted_attempts,
            "PerseasStats aborts differ from the attempts seen");
}

workload::DebitCreditOptions mt_bank() {
  workload::DebitCreditOptions o;  // bench_mt's bank
  o.branches = 8;
  o.tellers_per_branch = 10;
  o.accounts_per_branch = 1'000;
  return o;
}

void dc_mt_ledger(Run& run) {
  run.multi_client = true;
  const workload::DebitCreditOptions bank = mt_bank();
  core::PerseasConfig config;
  config.undo_capacity = 4 << 20;
  const std::uint64_t db_size = workload::DebitCredit::required_db_size(bank);

  bool with_ledger = true;
  std::uint64_t batches = 0;
  double batch_ns[2] = {0.0, 0.0};  // host ns in run_mt_debit_credit, [with ledger]
  std::uint64_t batch_txns[2] = {0, 0};
  // The ledger's host cost is read from untraced batches only (a traced
  // phase hands the batch a lane).
  const Batch batch = [&](EngineRig& rig, TxnTally& t, Lane* lane) {
    workload::MtOptions mo;
    mo.threads = kThreads;
    mo.txns_per_thread = kLedgerBatch;
    mo.seed = run.opt.seed * 1'000'003 + batches++;
    mo.app_compute = bank.app_compute;
    netram::Cluster& cluster = *rig.cluster;
    obs::CostLedger ledger;
    if (with_ledger) cluster.set_ledger(&ledger);
    const sim::SimTime attach = cluster.clock().now();
    const std::int64_t t0 = host_ns();
    const workload::MtResult r = workload::run_mt_debit_credit(*rig.engine, *rig.bank, mo);
    if (lane == nullptr) {
      batch_ns[with_ledger ? 1 : 0] += static_cast<double>(host_ns() - t0);
      batch_txns[with_ledger ? 1 : 0] += r.commits;
    }
    const sim::SimDuration delta = cluster.clock().now() - attach;
    if (with_ledger) {
      cluster.set_ledger(nullptr);
      run.check(ledger.total_ns() == delta, "ledger total differs from the clock delta");
      const std::vector<obs::CostEntry> rows = ledger.entries();
      run.ledger_rows.push_back(static_cast<double>(rows.size()));
      for (const obs::CostEntry& e : rows) {
        if (e.key.phase == "unattributed") run.ledger_unattributed_ns += static_cast<double>(e.ns);
      }
      run.ledger_total_ns += static_cast<double>(ledger.total_ns());
    }
    run.check(delta == r.total_work_ns, "worker busy time differs from the clock delta");
    run.check(r.conflicts == 0, "disjoint partitions conflicted");
    run.check(r.commits == mo.threads * mo.txns_per_thread, "an mt batch fell short",
              mo.threads * mo.txns_per_thread - r.commits);
    check_bank(run, *rig.bank);
    t.commits += r.commits;
    t.makespan_ns += r.makespan_ns;
    t.total_work_ns += r.total_work_ns;
    for (const workload::MtWorkerResult& w : r.workers) {
      t.add_busy(w.worker, w.busy_ns);
      for (const sim::SimDuration d : w.latencies) t.add_sim(d);
    }
  };
  for (int r = 0; r < kRounds; ++r) {
    const auto rig =
        timed_build(run, [&] { return make_rig(run, db_size, config, &bank, run.opt.seed); });
    if (r == 0) print_config(rig->perseas->perseas());
    const bool last = r + 1 == kRounds;
    engine_round(run, *rig, batch, last);
    if (last && run.opt.trace) {
      with_ledger = false;
      TxnTally scratch;
      txn_phase(run, *rig, scratch, kNoLedgerShare, false, batch);
      run.result.attempted += scratch.commits;
    }
    recovery_tail(run, *rig, last);
  }
  run.host_ns_per_txn_ledger = ratio(batch_ns[1], static_cast<double>(batch_txns[1]));
  run.host_ns_per_txn_no_ledger = ratio(batch_ns[0], static_cast<double>(batch_txns[0]));
  run.result.attempted += run.untraced.commits + run.traced.commits;
}

// --- crash_recover -----------------------------------------------------------

/// A 4 MB database on a 3-node cluster; each cycle commits kCycleTxns
/// 256-byte transactions, then the primary dies mid-commit (after the
/// range copy) and the database is recovered onto the spare.
struct CrashRig {
  std::unique_ptr<netram::Cluster> cluster;
  std::unique_ptr<netram::RemoteMemoryServer> server;
  std::unique_ptr<Failover> failover;
  std::vector<std::byte> shadow;  ///< committed state of record 0
};

void crash_cycles(Run& run, CrashRig& rig, sim::Rng& rng, TxnTally& tally, double share,
                  bool traced) {
  Lane* lane = run.main_lane(traced);
  netram::Cluster& cluster = *rig.cluster;
  std::byte payload[kCycleTxnBytes];
  const auto fill = [&] {
    for (std::size_t i = 0; i < kCycleTxnBytes; i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(payload + i, &v, 8);
    }
  };
  const std::int64_t end = run.deadline(share);
  std::vector<std::int64_t> latency_ns;
  for (int c = 0; c < kMinCycles || host_ns() < end; ++c) {
    if (traced && run.spans->full()) break;
    core::Perseas& db = rig.failover->db();
    const core::RecordHandle rec = db.record(0);
    const Counters c0 = Counters::of(db.stats(), cluster.stats());
    const std::int64_t loop0 = host_ns();
    latency_ns.clear();
    for (std::uint64_t i = 0; i < kCycleTxns; ++i) {
      const std::uint64_t offset = rng.below(kCrashDbBytes - kCycleTxnBytes);
      fill();
      ++run.result.attempted;
      const ScopedSpan span(lane, "workload.txn");
      const std::int64_t t0 = host_ns();
      const sim::StopWatch watch(cluster.clock());
      {
        std::optional<core::Transaction> txn;
        {
          const ScopedSpan s(lane, "core.begin");
          txn.emplace(db.begin_transaction());
        }
        {
          const ScopedSpan s(lane, "core.set_range");
          txn->set_range(rec, offset, kCycleTxnBytes);
        }
        std::memcpy(rec.bytes().data() + offset, payload, kCycleTxnBytes);
        const ScopedSpan s(lane, "core.commit");
        txn->commit();
      }
      const sim::SimDuration d = watch.elapsed();
      latency_ns.push_back(host_ns() - t0);
      tally.add_sim(d);
      tally.makespan_ns += d;
      tally.total_work_ns += d;
      tally.add_busy(0, d);
      ++tally.commits;
      std::memcpy(rig.shadow.data() + offset, payload, kCycleTxnBytes);
    }
    tally.add_host(latency_ns, host_ns() - loop0, kCycleTxns);
    tally.counters += Counters::of(db.stats(), cluster.stats()) - c0;

    ++run.result.attempted;
    const std::string problem = rig.failover->cycle(rig.shadow, rng, lane);
    run.check(problem.empty(), problem);
  }
  tally.end_phase();
}

void crash_recover(Run& run) {
  sim::Rng rng(run.opt.seed);
  run.untraced.window_txns = kCycleTxns;
  run.traced.window_txns = kCycleTxns;
  for (int r = 0; r < kRounds; ++r) {
    const auto rig = timed_build(run, [&] {
      auto fresh = std::make_unique<CrashRig>();
      fresh->cluster = make_cluster(run);
      fresh->server = std::make_unique<netram::RemoteMemoryServer>(*fresh->cluster, kMirror);
      fresh->failover = std::make_unique<Failover>(*fresh->cluster, *fresh->server,
                                                   core::PerseasConfig{}, nullptr);
      fresh->failover->create(kCrashDbBytes);
      fresh->shadow.assign(kCrashDbBytes, std::byte{0});
      return fresh;
    });
    if (r == 0) print_config(rig->failover->db());
    // The cycles are the workload: they take the tail's share too.
    crash_cycles(run, *rig, rng, run.untraced,
                 run.opt.trace ? kTracedUntracedShare / kRounds : 1.0 / kRounds, false);
    if (r + 1 == kRounds && run.opt.trace) {
      crash_cycles(run, *rig, rng, run.traced, kTracedShare + kTailShare, true);
    }
    run.recovery.merge(rig->failover->tally());
  }
}

// --- reporting ----------------------------------------------------------------

void report_end_to_end(Run& run) {
  const TxnTally& t = run.untraced;
  run.add("host_txn_per_s",
          run.multi_client ? quantile(t.window_txn_per_s, 0.50)
                           : ratio(1e6, quantile(t.window_p50_us, kQuietWindow)),
          "1/s");
  run.add("sim_txn_per_s",
          ratio(static_cast<double>(t.commits) * 1e9, static_cast<double>(t.makespan_ns)), "1/s");
  run.add("sim_txn_mean_us", ratio(t.sim_sum_us, static_cast<double>(t.sim_count)), "us");
  run.add("cycle_ms_p50", quantile(run.recovery.cycle_ms, 0.50), "ms");
  run.add("recover_sim_ms", quantile(run.recovery.recover_sim_ms, 0.50), "ms");
  run.add("setup_s", quantile(run.setup_s, 0.50), "s");
}

void report_per_layer(Run& run) {
  const SpanRecorder& sp = *run.spans;
  TxnTally all = run.untraced;
  all.merge(run.traced);
  const Counters& c = all.counters;
  const double commits = static_cast<double>(c.committed);
  const double traced_commits = static_cast<double>(run.traced.commits);

  const double workload_self_ns = static_cast<double>(
      sp.self_ns("workload.run_one") + sp.self_ns("workload.attempt") + sp.self_ns("workload.txn"));
  run.add("workload.self_us_per_txn", ratio(workload_self_ns / 1e3, traced_commits), "us");
  run.add("workload.txn_p50_us",
          quantile(run.untraced.window_p50_us, run.multi_client ? 0.50 : kQuietWindow), "us");

  run.add("core.begin_us_p50", quantile(sp.durations_us("core.begin"), 0.50), "us");
  run.add("core.set_range_us_p50", quantile(sp.durations_us("core.set_range"), 0.50), "us");
  run.add("core.commit_us_p50", quantile(sp.durations_us("core.commit"), 0.50), "us");
  run.add("core.commit_us_p99", quantile(sp.durations_us("core.commit"), 0.99), "us");
  run.add("core.abort_us_p50", quantile(sp.durations_us("core.abort"), 0.50), "us");

  run.add("core.sim_local_undo_ns_per_txn", ratio(static_cast<double>(c.local_undo_ns), commits),
          "ns");
  run.add("core.sim_remote_undo_ns_per_txn",
          ratio(static_cast<double>(c.remote_undo_ns), commits), "ns");
  run.add("core.sim_propagation_ns_per_txn",
          ratio(static_cast<double>(c.propagation_ns), commits), "ns");
  run.add("core.sim_commit_flags_ns_per_txn", ratio(static_cast<double>(c.flags_ns), commits),
          "ns");
  run.add("core.bytes_undo_remote_per_txn",
          ratio(static_cast<double>(c.undo_remote_bytes), commits), "B");
  run.add("core.bytes_propagated_per_txn",
          ratio(static_cast<double>(c.propagated_bytes), commits), "B");
  run.add("core.undo_growths", static_cast<double>(c.undo_growths), "count");

  run.add("core.cc.conflicts_per_commit", ratio(static_cast<double>(c.conflicted), commits),
          "ratio");
  run.add("core.cc.commit_attempt_ratio",
          ratio(commits, commits + static_cast<double>(c.aborted)), "ratio");
  run.add("core.cc.wasted_attempt_us", ratio(run.wasted_attempt_ns / 1e3, commits), "us");

  const Failover::Tally& rec = run.recovery;
  const double cycles = static_cast<double>(rec.cycles);
  run.add("core.recover_ms_p50", quantile(rec.recover_ms, 0.50), "ms");
  run.add("core.recover.entries_scanned", ratio(static_cast<double>(rec.entries_scanned), cycles),
          "count");
  run.add("core.recover.entries_applied", ratio(static_cast<double>(rec.entries_applied), cycles),
          "count");

  run.add("netram.cluster_ctor_ms", quantile(run.cluster_ctor_ms, 0.50), "ms");
  run.add("netram.crash_node_ms", quantile(rec.crash_ms, 0.50), "ms");
  run.add("netram.restart_node_ms", quantile(rec.restart_ms, 0.50), "ms");
  run.add("netram.remote_writes_per_txn", ratio(static_cast<double>(c.remote_writes), commits),
          "count");
  run.add("netram.remote_write_bytes_per_txn",
          ratio(static_cast<double>(c.remote_write_bytes), commits), "B");
  run.add("netram.partial_packets_per_txn",
          ratio(static_cast<double>(c.partial_packets), commits), "count");
  run.add("netram.local_memcpy_bytes_per_txn",
          ratio(static_cast<double>(c.local_memcpy_bytes), commits), "B");
  run.add("netram.remote_read_bytes_per_recovery",
          ratio(static_cast<double>(rec.remote_read_bytes), cycles), "B");

  double busy_max = 0.0;
  double busy_min = 0.0;
  for (std::size_t w = 0; w < all.worker_busy_ns.size(); ++w) {
    const auto b = static_cast<double>(all.worker_busy_ns[w]);
    busy_max = w == 0 ? b : std::max(busy_max, b);
    busy_min = w == 0 ? b : std::min(busy_min, b);
  }
  run.add("sim.speedup",
          ratio(static_cast<double>(all.total_work_ns), static_cast<double>(all.makespan_ns)),
          "ratio");
  run.add("sim.busy_skew", ratio(busy_max, busy_min), "ratio");
  run.add("sim.txn_p50_us", quantile(all.sim_us, 0.50), "us");
  run.add("sim.txn_p99_us", quantile(all.sim_us, 0.99), "us");

  run.add("obs.ledger_us_per_txn",
          (run.host_ns_per_txn_ledger - run.host_ns_per_txn_no_ledger) / 1e3, "us");
  run.add("obs.ledger_rows", mean(run.ledger_rows), "count");
  run.add("obs.ledger_unattributed_share", ratio(run.ledger_unattributed_ns, run.ledger_total_ns),
          "ratio");

  // Median windows on both sides: the traced phase has far fewer windows
  // than the untraced rounds, and a tail quantile would not compare alike.
  const double untraced_p50 = quantile(run.untraced.window_p50_us, 0.50);
  run.add("trace.overhead_share",
          ratio(quantile(run.traced.window_p50_us, 0.50) - untraced_p50, untraced_p50), "ratio");
  run.add("trace.spans", static_cast<double>(sp.recorded()), "count");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dc_serial", "zipf_rw", "crash_recover",
                                                 "dc_mt_ledger"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  Run run(options);
  if (options.workload == "dc_serial") {
    dc_serial(run);
  } else if (options.workload == "zipf_rw") {
    zipf_rw(run);
  } else if (options.workload == "crash_recover") {
    crash_recover(run);
  } else if (options.workload == "dc_mt_ledger") {
    dc_mt_ledger(run);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    report_per_layer(run);
    if (!options.spans_path.empty()) run.spans->write_tsv(options.spans_path);
  } else {
    report_end_to_end(run);
  }
  return std::move(run.result);
}

}  // namespace perfbench

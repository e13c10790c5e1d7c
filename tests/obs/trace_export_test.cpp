// Golden-file and consistency tests for trace export.  Spans come only
// from obs::ScopedCost, so a fixed 3-transaction workload (two commits, one
// abort) must emit exactly the expected span sequence; span self time must
// equal the cost ledger row by row; every engine's lifecycle scopes show up
// in a traced lab; concurrent workers' spans nest per lane; and the
// exported metrics must equal the authoritative stats structs
// (PerseasStats, NetworkStats) byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"
#include "workload/synthetic.hpp"

namespace perseas::obs {
namespace {

/// A span's end instant.
sim::SimTime end_of(const TraceEvent& e) { return e.ts + e.dur; }

/// True when `inner` lies within `outer` on the same lane.
bool contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.track == inner.track && outer.tid == inner.tid && outer.ts <= inner.ts &&
         end_of(inner) <= end_of(outer);
}

/// Self time of every span: its duration minus the time its descendants
/// cover.  Spans are recorded as they close, so a span's descendants are
/// the spans it contains that closed before it; they nest, so the union of
/// their intervals is exactly the time its direct children cover.  (A
/// zero-length sibling that happens to sit on the boundary covers no
/// time, so it cannot skew the sum.)
std::vector<sim::SimDuration> self_times(const std::vector<TraceEvent>& spans) {
  std::vector<sim::SimDuration> out;
  out.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<sim::SimTime, sim::SimTime>> covered;
    for (std::size_t j = 0; j < i; ++j) {
      if (contains(spans[i], spans[j])) covered.emplace_back(spans[j].ts, end_of(spans[j]));
    }
    std::sort(covered.begin(), covered.end());
    sim::SimDuration child_ns = 0;
    sim::SimTime reach = spans[i].ts;
    for (const auto& [from, to] : covered) {
      const sim::SimTime start = std::max(from, reach);
      if (to > start) child_ns += to - start;
      reach = std::max(reach, to);
    }
    out.push_back(spans[i].dur - child_ns);
  }
  return out;
}

/// Span self time summed per (txn, phase) must equal that key's ledger
/// ns (summed over layer and channel); a scope that charged nothing has a
/// span but no ledger row.  Charges made outside every scope (the
/// unattributed row) have no span.  Returns the number of keys compared.
std::size_t expect_spans_match_ledger(const TraceRecorder& trace, const CostLedger& ledger) {
  using Key = std::pair<std::uint64_t, std::string>;
  std::map<Key, sim::SimDuration> span_ns;
  const auto& spans = trace.events();
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    span_ns[{spans[i].txn, spans[i].name}] += self[i];
  }
  std::map<Key, sim::SimDuration> ledger_ns;
  for (const CostEntry& e : ledger.entries()) {
    if (e.key.phase != "unattributed") ledger_ns[{e.key.txn, std::string(e.key.phase)}] += e.ns;
  }
  for (const auto& [key, ns] : span_ns) {
    const auto row = ledger_ns.find(key);
    const sim::SimDuration booked = row != ledger_ns.end() ? row->second : -1;
    EXPECT_EQ(booked, ns != 0 ? ns : -1)
        << "txn " << key.first << " " << key.second
        << (ns == 0 ? ": a scope that charged nothing must have no row" : "");
  }
  for (const auto& [key, ns] : ledger_ns) {
    EXPECT_TRUE(span_ns.count(key)) << "ledger row without a span: txn " << key.first << " "
                                    << key.second;
  }
  return span_ns.size();
}

/// Names of the spans of `trace`, in close order.
std::vector<std::string> names(const TraceRecorder& trace) {
  std::vector<std::string> out;
  for (const auto& e : trace.events()) out.push_back(e.name);
  return out;
}

class TraceExportTest : public ::testing::Test {
 protected:
  TraceExportTest() : cluster_(sim::HardwareProfile::forth_1997(), 2), server_(cluster_, 1) {}

  /// The fixed workload: txn 1 commits one 16-byte range, txn 2 commits two
  /// ranges, txn 3 dirties one range and aborts.
  void run_workload(core::Perseas& db, core::RecordHandle& rec) {
    {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 16);
      std::memset(rec.bytes().data(), 0x11, 16);
      txn.commit();
    }
    {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 16);
      txn.set_range(rec, 64, 32);
      std::memset(rec.bytes().data(), 0x22, 16);
      std::memset(rec.bytes().data() + 64, 0x22, 32);
      txn.commit();
    }
    {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 32, 8);
      std::memset(rec.bytes().data() + 32, 0x33, 8);
      txn.abort();
    }
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
};

TEST_F(TraceExportTest, ThreeTxnWorkloadEmitsGoldenSpanSequence) {
  TraceRecorder trace;
  cluster_.set_trace(&trace, trace.register_track("golden"));
  core::PerseasConfig config;
  config.name = "golden";
  core::Perseas db(cluster_, 0, {&server_}, config);
  auto rec = db.persistent_malloc(128);
  db.init_remote_db();
  run_workload(db, rec);

  // The golden sequence, embedded: one span per cost scope, recorded as
  // the scope closes, so children precede their parent.  Setup
  // (persistent_malloc, init_remote_db) has no scope and no span.
  const std::vector<std::pair<std::uint64_t, std::string>> kGolden = {
      // txn 1: one range, committed
      {1, "begin"},
      {1, "local_undo"},
      {1, "remote_undo"},
      {1, "set_range"},
      {1, "validate"},
      {1, "flag_set"},
      {1, "propagate"},
      {1, "flag_clear"},
      {1, "commit"},
      // txn 2: two ranges, committed
      {2, "begin"},
      {2, "local_undo"},
      {2, "remote_undo"},
      {2, "set_range"},
      {2, "local_undo"},
      {2, "remote_undo"},
      {2, "set_range"},
      {2, "validate"},
      {2, "flag_set"},
      {2, "propagate"},
      {2, "flag_clear"},
      {2, "commit"},
      // txn 3: one range, aborted
      {3, "begin"},
      {3, "local_undo"},
      {3, "remote_undo"},
      {3, "set_range"},
      {3, "abort"},
  };

  const auto& events = trace.events();
  ASSERT_EQ(events.size(), kGolden.size());
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    EXPECT_EQ(events[i].txn, kGolden[i].first) << "event " << i;
    EXPECT_EQ(events[i].name, kGolden[i].second) << "event " << i;
    EXPECT_EQ(events[i].cat, "core") << "event " << i;
    EXPECT_EQ(events[i].tid, 0u) << "event " << i;  // the main thread
    EXPECT_EQ(events[i].track, 1u) << "event " << i;
  }

  // Each set_range and commit span encloses its phases, and the phases
  // follow one another: local_undo ends before remote_undo starts, and
  // propagate ends before flag_clear starts.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == "set_range" || events[i].name == "commit") {
      for (std::size_t j = i; j-- > 0 && events[j].name != "set_range" &&
                              events[j].name != "begin";) {
        EXPECT_TRUE(contains(events[i], events[j])) << "event " << j << " in " << i;
      }
    }
    if (i > 0 && events[i].name == "remote_undo") {
      EXPECT_EQ(events[i - 1].name, "local_undo");
      EXPECT_LE(end_of(events[i - 1]), events[i].ts) << "event " << i;
    }
    if (i > 0 && events[i].name == "flag_clear") {
      EXPECT_EQ(events[i - 1].name, "propagate");
      EXPECT_LE(end_of(events[i - 1]), events[i].ts) << "event " << i;
    }
  }

  // The serialized form is Chrome/Perfetto trace-event JSON.
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json.substr(0, 80);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"txn\":2}"), std::string::npos);
  EXPECT_NE(json.find("golden"), std::string::npos);
  EXPECT_EQ(trace.track_count(), 1u);
}

// One instrumentation site per phase: what a span says a phase cost is
// exactly what the ledger booked for it, on PERSEAS and on every engine
// that nests scopes (RVM's truncation inside commit and recovery, Vista's
// recovery inside abort).
TEST_F(TraceExportTest, SpanSelfTimeEqualsLedgerRowPerTxnAndPhase) {
  TraceRecorder trace;
  CostLedger ledger;
  core::Perseas db(cluster_, 0, {&server_});
  auto rec = db.persistent_malloc(128);
  db.init_remote_db();
  cluster_.set_trace(&trace, trace.register_track("perseas"));
  cluster_.set_ledger(&ledger);
  run_workload(db, rec);
  cluster_.set_ledger(nullptr);
  EXPECT_EQ(expect_spans_match_ledger(trace, ledger), 23u);
  for (const CostEntry& e : ledger.entries()) EXPECT_NE(e.key.phase, "unattributed");

  for (const auto kind : {workload::EngineKind::kRvmDisk, workload::EngineKind::kVista,
                          workload::EngineKind::kRemoteWal, workload::EngineKind::kFsMirror}) {
    workload::LabOptions lo;
    lo.db_size = 1 << 16;
    lo.log_capacity = 1 << 16;  // small enough that commits truncate
    workload::EngineLab lab(kind, lo);
    TraceRecorder lab_trace;
    CostLedger lab_ledger;
    lab.cluster().set_trace(&lab_trace, lab_trace.register_track("lab"));
    lab.cluster().set_ledger(&lab_ledger);
    workload::SyntheticWorkload w(lab.engine(), 512);
    w.run(100);
    lab.engine().begin();
    lab.engine().set_range(0, 64);
    lab.engine().abort();
    lab.cluster().set_ledger(nullptr);
    SCOPED_TRACE(workload::to_string(kind));
    EXPECT_GT(expect_spans_match_ledger(lab_trace, lab_ledger), 300u);
  }
}

// The comparison engines trace their lifecycle through the same scopes:
// begin, set_range, commit, abort, recover and (RVM, remote WAL) truncate.
// Recovery runs through TxnEngine::recover(), the same entry for every
// engine.
TEST(TraceEngines, TracedLabsEmitEveryLifecycleSpan) {
  struct Case {
    workload::EngineKind kind;
    std::set<std::string> phases;
  };
  const std::set<std::string> lifecycle = {"begin", "set_range", "commit", "abort", "recover"};
  std::set<std::string> with_truncate = lifecycle;
  with_truncate.insert("truncate");
  for (const Case& c : {Case{workload::EngineKind::kRvmDisk, with_truncate},
                        Case{workload::EngineKind::kVista, lifecycle},
                        Case{workload::EngineKind::kRemoteWal, with_truncate},
                        Case{workload::EngineKind::kFsMirror, lifecycle}}) {
    SCOPED_TRACE(workload::to_string(c.kind));
    TraceRecorder trace;
    workload::LabOptions lo;
    lo.db_size = 1 << 16;
    lo.log_capacity = 1 << 16;
    lo.trace = &trace;
    workload::EngineLab lab(c.kind, lo);
    workload::SyntheticWorkload w(lab.engine(), 512);
    w.run(100);
    lab.engine().begin();
    lab.engine().set_range(0, 64);
    lab.engine().abort();
    (void)lab.engine().recover();

    std::set<std::string> seen;
    std::size_t commits = 0;
    for (const auto& e : trace.events()) {
      EXPECT_EQ(e.cat, "wal") << e.name;
      EXPECT_EQ(e.track, 1u) << "the lab's one track";
      seen.insert(e.name);
      commits += e.name == "commit" ? 1 : 0;
    }
    EXPECT_EQ(seen, c.phases);
    EXPECT_EQ(commits, 100u);
    const auto all = names(trace);
    EXPECT_EQ(std::count(all.begin(), all.end(), "begin"), 101);
  }
}

// With real threads, each worker records on its own lane (tid = its
// sim::current_worker_id()), and on every lane the spans nest: any two are
// disjoint or one contains the other.
TEST(TraceWorkers, TwoWorkersSpansNestPerLane) {
  workload::DebitCreditOptions bank_options;
  bank_options.branches = 2;
  bank_options.accounts_per_branch = 100;
  workload::LabOptions lo;
  lo.db_size = workload::DebitCredit::required_db_size(bank_options);
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  workload::DebitCredit bank(lab.engine(), bank_options);
  bank.load();
  TraceRecorder trace;
  lab.cluster().set_trace(&trace, trace.register_track("workers"));

  workload::MtOptions mo;
  mo.threads = 2;
  mo.txns_per_thread = 20;
  const auto result = workload::run_mt_debit_credit(lab.engine(), bank, mo);
  ASSERT_EQ(result.commits, 40u);

  std::map<std::uint32_t, std::vector<TraceEvent>> lanes;
  for (const auto& e : trace.events()) lanes[e.tid].push_back(e);
  ASSERT_EQ(lanes.size(), 2u) << "one lane per worker, none on the main thread";
  for (const auto& [tid, spans] : lanes) {
    SCOPED_TRACE("lane " + std::to_string(tid));
    EXPECT_TRUE(tid == 1 || tid == 2);
    std::size_t commits = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      commits += spans[i].name == "commit" ? 1 : 0;
      for (std::size_t j = 0; j < i; ++j) {
        const bool disjoint = end_of(spans[j]) <= spans[i].ts || end_of(spans[i]) <= spans[j].ts;
        // Spans close children first, so an earlier span is either done
        // before this one or one of its descendants.
        EXPECT_TRUE(disjoint || contains(spans[i], spans[j]))
            << spans[j].name << " straddles " << spans[i].name;
      }
    }
    EXPECT_EQ(commits, 20u);
  }
}

TEST_F(TraceExportTest, ExportedMetricsEqualAuthoritativeStatsExactly) {
  MetricsRegistry reg;
  core::PerseasConfig config;
  config.name = "golden";
  core::Perseas db(cluster_, 0, {&server_}, config);
  auto rec = db.persistent_malloc(128);
  db.init_remote_db();
  run_workload(db, rec);

  db.export_metrics(reg);
  cluster_.export_metrics(reg);

  const core::PerseasStats& s = db.stats();
  const std::string db_label = "db=\"golden\"";
  const auto counter = [&reg](const std::string& name, const std::string& labels) {
    return reg.counter(name, "", labels).value();
  };

  // Cost-model ground truth for this workload: 16 + (16 + 32) + 8 bytes of
  // declared ranges, each copied once locally and once per mirror.
  EXPECT_EQ(s.bytes_undo_local, 72u);
  EXPECT_EQ(s.bytes_propagated, 64u);  // the abort propagates nothing

  EXPECT_EQ(counter("perseas_txns_total", db_label + ",outcome=\"committed\""),
            s.txns_committed);
  EXPECT_EQ(counter("perseas_txns_total", db_label + ",outcome=\"aborted\""), s.txns_aborted);
  EXPECT_EQ(s.txns_committed, 2u);
  EXPECT_EQ(s.txns_aborted, 1u);
  EXPECT_EQ(counter("perseas_set_ranges_total", db_label), s.set_ranges);
  EXPECT_EQ(counter("perseas_bytes_total", db_label + ",channel=\"undo_local\""),
            s.bytes_undo_local);
  EXPECT_EQ(counter("perseas_bytes_total", db_label + ",channel=\"undo_remote\""),
            s.bytes_undo_remote);
  EXPECT_EQ(counter("perseas_bytes_total", db_label + ",channel=\"propagate\""),
            s.bytes_propagated);
  EXPECT_EQ(counter("perseas_phase_ns_total", db_label + ",phase=\"local_undo\""),
            static_cast<std::uint64_t>(s.time_local_undo));
  EXPECT_EQ(counter("perseas_phase_ns_total", db_label + ",phase=\"remote_undo\""),
            static_cast<std::uint64_t>(s.time_remote_undo));
  EXPECT_EQ(counter("perseas_phase_ns_total", db_label + ",phase=\"propagate\""),
            static_cast<std::uint64_t>(s.time_propagation));
  EXPECT_EQ(counter("perseas_phase_ns_total", db_label + ",phase=\"commit_flags\""),
            static_cast<std::uint64_t>(s.time_commit_flags));

  // Concurrency bookkeeping: this workload is strictly one-transaction-at-
  // a-time, so the conflict counter stays zero and the open-transaction
  // peak is exactly one.
  EXPECT_EQ(counter("perseas_txn_conflicts_total", db_label), s.txns_conflicted);
  EXPECT_EQ(s.txns_conflicted, 0u);
  EXPECT_EQ(reg.gauge("perseas_open_txns_peak", "", db_label).value(), 1.0);
  EXPECT_EQ(s.max_open_txns, 1u);
  // The undo-occupancy gauge documents the shared (multi-transaction) log.
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("Undo-log bytes occupied by the open transactions"), std::string::npos);
  EXPECT_NE(prom.find("High-water mark of concurrently open transactions"), std::string::npos);

  const netram::NetworkStats& n = cluster_.stats();
  EXPECT_EQ(counter("netram_remote_writes_total", ""), n.remote_writes);
  EXPECT_EQ(counter("netram_bytes_total", "channel=\"remote_write\""), n.remote_write_bytes);
  EXPECT_EQ(counter("netram_bytes_total", "channel=\"local_memcpy\""), n.local_memcpy_bytes);
  EXPECT_EQ(counter("netram_sci_packets_total", "kind=\"full\""), n.full_packets);
  EXPECT_EQ(counter("netram_sci_packets_total", "kind=\"partial\""), n.partial_packets);
}

}  // namespace
}  // namespace perseas::obs

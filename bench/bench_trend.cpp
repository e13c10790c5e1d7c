// The perf-trajectory bench behind the repo-root BENCH_trend.json gate.
//
// Two claims ride in one document:
//
//   1. Section 6's technology trend — "the performance benefits of our
//      approach will increase with time": disk latency/throughput improve
//      ~10%/20% per year while interconnect latency/throughput improve
//      ~20%/45% per year, so the bench advances the hardware profile year
//      by year and re-runs the short-transaction comparison.
//   2. The repo's own perf trajectory: fig6-style latency rows, table1-style
//      throughput rows, SCI byte counts and the coalesce ablation, plus the
//      per-transaction cost ledger (the sum of which must equal the
//      simulated clock delta exactly).  tools/bench-trend.sh regenerates the
//      document and tools/bench-diff.py attributes any latency drift
//      between two snapshots to ledger phases.
//
// The simulation is deterministic, so the emitted numbers are bit-stable:
// CI regenerates the document and any unexplained change fails the gate.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.hpp"
#include "obs/cost_ledger.hpp"
#include "sim/random.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perseas;

double tps(workload::EngineKind kind, const sim::HardwareProfile& profile, std::uint64_t txns) {
  workload::LabOptions lo;
  lo.profile = profile;
  workload::EngineLab lab(kind, lo);
  workload::SyntheticWorkload w(lab.engine(), 64);
  return w.run(txns).txns_per_second();
}

void print_trend(bench::Harness& harness) {
  bench::print_header("Technology trend: PERSEAS vs disk-based WAL, 1997 onward",
                      "Papathanasiou & Markatos 1997, section 6");
  std::printf("%6s %14s %14s %14s %12s\n", "year", "perseas", "rvm-disk", "remote-wal",
              "perseas/rvm");
  const auto base = sim::HardwareProfile::forth_1997();
  const std::uint64_t scale = harness.quick() ? 10 : 1;
  for (int years = 0; years <= 8; years += 2) {
    const auto profile = base.advanced_by_years(years);
    const double perseas = tps(workload::EngineKind::kPerseas, profile, 10'000 / scale);
    const double rvm = tps(workload::EngineKind::kRvmDisk, profile, 300 / scale);
    const double rwal = tps(workload::EngineKind::kRemoteWal, profile, 60'000 / scale);
    std::printf("%6d %14.0f %14.0f %14.0f %11.0fx\n", 1997 + years, perseas, rvm, rwal,
                perseas / rvm);
    harness.add_row(obs::Json::object()
                        .set("kind", "trend")
                        .set("year", 1997 + years)
                        .set("perseas_tps", perseas)
                        .set("rvm_disk_tps", rvm)
                        .set("remote_wal_tps", rwal)
                        .set("speedup", perseas / rvm));
  }
  std::printf("\nthe gap widens: network (PERSEAS' substrate) improves faster than\n"
              "the disk every WAL variant ultimately depends on.\n");
}

/// Fig6-style latency rows with the cost ledger attached: the PERSEAS
/// transaction-size sweep, each row carrying its SCI byte count, and the
/// whole instrumented run's (txn, phase, layer, channel) ledger in the
/// document's "ledger" section — conservation (sum == clock delta) checked
/// right here, before anything is written.
void print_fig6_with_ledger(bench::Harness& harness, bool& ok) {
  bench::print_header("Fig6-style latency + per-transaction cost ledger",
                      "Papathanasiou & Markatos 1997, figure 6 (instrumented)");
  std::printf("%12s %14s %14s %14s\n", "txn bytes", "mean us", "txns/s", "sci bytes");
  workload::LabOptions lo;
  lo.db_size = 1 << 20;
  lo.perseas.undo_capacity = 1 << 20;
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  obs::CostLedger ledger;
  lab.cluster().set_ledger(&ledger);
  const sim::SimTime attach = lab.cluster().clock().now();
  const std::uint64_t n = harness.quick() ? 100 : 1000;
  for (const std::uint64_t size : {64u, 1024u, 16384u}) {
    workload::SyntheticWorkload w(lab.engine(), size);
    const std::uint64_t sci_before = lab.cluster().stats().remote_write_bytes;
    const auto r = w.run(n);
    const std::uint64_t sci = lab.cluster().stats().remote_write_bytes - sci_before;
    std::printf("%12llu %14.2f %14.0f %14llu\n", static_cast<unsigned long long>(size),
                r.latency.mean_us(), r.txns_per_second(), static_cast<unsigned long long>(sci));
    harness.add_row(obs::Json::object()
                        .set("kind", "fig6")
                        .set("txn_bytes", static_cast<std::uint64_t>(size))
                        .set("txns", n)
                        .set("mean_us", r.latency.mean_us())
                        .set("txns_per_second", r.txns_per_second())
                        .set("sci_bytes", sci));
  }
  const std::uint64_t clock_delta =
      static_cast<std::uint64_t>(lab.cluster().clock().now() - attach);
  lab.cluster().set_ledger(nullptr);
  if (static_cast<std::uint64_t>(ledger.total_ns()) != clock_delta) {
    std::fprintf(stderr,
                 "bench_trend: LEDGER CONSERVATION VIOLATED: sum(ledger)=%llu ns but the "
                 "simulated clock advanced %llu ns\n",
                 static_cast<unsigned long long>(ledger.total_ns()),
                 static_cast<unsigned long long>(clock_delta));
    ok = false;
  }
  obs::Json doc = ledger.to_json();
  doc.set("clock_delta_ns", clock_delta);
  harness.set_ledger(std::move(doc));
  std::printf("\nledger: %llu ns attributed across (txn, phase, layer, channel) keys;\n"
              "        sum equals the simulated clock delta exactly.\n",
              static_cast<unsigned long long>(ledger.total_ns()));
}

void print_table1(bench::Harness& harness) {
  bench::print_header("Table1-style throughput across engines",
                      "Papathanasiou & Markatos 1997, table 1");
  std::printf("%14s %16s\n", "engine", "txns/s");
  const auto profile = sim::HardwareProfile::forth_1997();
  struct Leg {
    workload::EngineKind kind;
    std::uint64_t txns;
  };
  constexpr Leg kLegs[] = {{workload::EngineKind::kPerseas, 2000},
                           {workload::EngineKind::kRvmDisk, 100},
                           {workload::EngineKind::kRemoteWal, 2000}};
  for (const Leg& leg : kLegs) {
    const std::uint64_t n = harness.quick() ? leg.txns / 10 : leg.txns;
    const double v = tps(leg.kind, profile, n);
    const std::string name(workload::to_string(leg.kind));
    std::printf("%14s %16.0f\n", name.c_str(), v);
    harness.add_row(obs::Json::object()
                        .set("kind", "table1")
                        .set("engine", name)
                        .set("txns", n)
                        .set("txns_per_second", v));
  }
}

void print_coalesce_ablation(bench::Harness& harness) {
  bench::print_header("Coalesce ablation: overlapping declarations, on vs off",
                      "range-coalescing ablation (merged undo ranges, gathered SCI bursts)");
  std::printf("%10s %12s %14s\n", "coalesce", "us/txn", "sci bytes");
  const std::uint64_t n = harness.quick() ? 200 : 2000;
  for (const bool coalesce : {true, false}) {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    core::PerseasConfig config;
    config.coalesce_ranges = coalesce;
    config.undo_capacity = 4 << 20;
    config.name = coalesce ? "trend-coalesce-on" : "trend-coalesce-off";
    core::Perseas db(cluster, 0, {&server}, config);
    auto rec = db.persistent_malloc(64 << 10);
    db.init_remote_db();
    cluster.reset_stats();
    sim::Rng rng(42);
    const auto t0 = cluster.clock().now();
    for (std::uint64_t i = 0; i < n; ++i) {
      // Field-by-field updates whose declarations overlap: the redundancy
      // the coalescing layer removes.
      const std::uint64_t base = rng.below((64 << 10) - 384);
      auto txn = db.begin_transaction();
      txn.set_range(rec, base, 256);
      std::memset(rec.bytes().data() + base, 0x5A, 256);
      txn.set_range(rec, base + 128, 256);
      std::memset(rec.bytes().data() + base + 128, 0x66, 256);
      txn.commit();
    }
    const double mean_us = sim::to_us(cluster.clock().now() - t0) / static_cast<double>(n);
    // Label from the *effective* config: PERSEAS_COALESCE overrides the
    // requested option, and the row must say what actually ran.
    const char* label = db.config().coalesce_ranges ? "on" : "off";
    std::printf("%10s %12.2f %14llu\n", label, mean_us,
                static_cast<unsigned long long>(cluster.stats().remote_write_bytes));
    harness.add_row(obs::Json::object()
                        .set("kind", "coalesce")
                        .set("coalesce", label)
                        .set("txns", n)
                        .set("mean_us", mean_us)
                        .set("sci_bytes", cluster.stats().remote_write_bytes)
                        .set("ranges_coalesced", db.stats().ranges_coalesced));
    if (harness.metrics() != nullptr) db.export_metrics(*harness.metrics());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perseas::bench::Harness harness("trend", argc, argv);
  bool ok = true;
  print_trend(harness);
  print_fig6_with_ledger(harness, ok);
  print_table1(harness);
  print_coalesce_ablation(harness);
  return harness.finish() && ok ? 0 : 1;
}

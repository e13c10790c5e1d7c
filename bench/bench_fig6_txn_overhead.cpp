// Figure 6: PERSEAS transaction overhead as a function of transaction size
// (4 bytes to 1 MB, random database locations, log-log in the paper).
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perseas;

workload::LabOptions lab_options() {
  workload::LabOptions options;
  options.db_size = 8 << 20;
  options.perseas.undo_capacity = 4 << 20;
  return options;
}

void print_figure6(bench::Harness& harness) {
  bench::print_header("Figure 6: PERSEAS transaction overhead vs transaction size",
                      "Papathanasiou & Markatos 1997, figure 6");
  std::printf("%12s %18s %18s\n", "txn bytes", "overhead (us)", "txns/s");
  const std::uint64_t max_size = harness.quick() ? 4096 : (1 << 20);
  for (std::uint64_t size = 4; size <= max_size; size *= 4) {
    workload::LabOptions lo = lab_options();
    lo.trace = harness.trace();
    lo.metrics = harness.metrics();
    lo.trace_label = "perseas txn=" + std::to_string(size) + "B";
    workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
    workload::SyntheticWorkload w(lab.engine(), size);
    const std::uint64_t n = harness.quick() ? 200 : (size >= (1 << 18) ? 30 : 2000);
    const auto result = w.run(n);
    std::printf("%12llu %18.2f %18.0f\n", static_cast<unsigned long long>(size),
                result.latency.mean_us(), result.txns_per_second());
    harness.add_row(obs::Json::object()
                        .set("txn_bytes", size)
                        .set("txns", n)
                        .set("mean_us", result.latency.mean_us())
                        .set("txns_per_second", result.txns_per_second()));
    if (harness.metrics() != nullptr) lab.export_metrics(*harness.metrics());
  }
  std::printf("\nanchors: very small transactions complete in < 8 us\n"
              "         (> 100,000 txns/s); 1 MB transactions in < 0.1 s.\n");
}

void print_figure6b(bench::Harness& harness) {
  bench::print_header(
      "Figure 6b: write-set coalescing on an overlapping workload",
      "range-coalescing ablation (merged undo ranges, gathered SCI bursts)");
  std::printf("%10s %12s %14s %16s %16s\n", "coalesce", "us/txn", "sci bytes", "dedup undo B",
              "dedup prop B");
  const std::uint64_t n = harness.quick() ? 200 : 2000;
  for (const bool coalesce : {true, false}) {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    core::PerseasConfig config;
    config.coalesce_ranges = coalesce;
    config.undo_capacity = 4 << 20;
    config.name = coalesce ? "fig6b-on" : "fig6b-off";
    core::Perseas db(cluster, 0, {&server}, config);
    auto rec = db.persistent_malloc(64 << 10);
    db.init_remote_db();
    cluster.reset_stats();
    sim::Rng rng(42);
    const auto t0 = cluster.clock().now();
    for (std::uint64_t i = 0; i < n; ++i) {
      // An application updating one region field-by-field: three
      // declarations whose union is [base, base+384) but whose raw sum is
      // 576 bytes — the redundancy the coalescing layer removes.
      const std::uint64_t base = rng.below((64 << 10) - 384);
      auto txn = db.begin_transaction();
      txn.set_range(rec, base, 256);
      std::memset(rec.bytes().data() + base, 0x5A, 256);
      txn.set_range(rec, base + 128, 256);
      std::memset(rec.bytes().data() + base + 128, 0x66, 256);
      txn.set_range(rec, base + 64, 64);  // fully covered
      std::memset(rec.bytes().data() + base + 64, 0x77, 64);
      txn.commit();
    }
    const double mean_us = sim::to_us(cluster.clock().now() - t0) / n;
    // Label from the *effective* config: PERSEAS_COALESCE overrides the
    // requested option, and the row must say what actually ran.
    const char* label = db.config().coalesce_ranges ? "on" : "off";
    const auto& s = db.stats();
    std::printf("%10s %12.2f %14llu %16llu %16llu\n", label, mean_us,
                static_cast<unsigned long long>(cluster.stats().remote_write_bytes),
                static_cast<unsigned long long>(s.bytes_dedup_undo),
                static_cast<unsigned long long>(s.bytes_dedup_propagated));
    harness.add_row(obs::Json::object()
                        .set("coalesce", label)
                        .set("txns", n)
                        .set("mean_us", mean_us)
                        .set("sci_bytes", cluster.stats().remote_write_bytes)
                        .set("bytes_dedup_undo", s.bytes_dedup_undo)
                        .set("bytes_dedup_propagated", s.bytes_dedup_propagated)
                        .set("ranges_coalesced", s.ranges_coalesced));
    if (harness.metrics() != nullptr) db.export_metrics(*harness.metrics());
  }
  std::printf("\nanchor: with coalescing on, the overlapping workload moves strictly\n"
              "        fewer SCI bytes and commits in less simulated time.\n");
}

}  // namespace

int main(int argc, char** argv) {
  perseas::bench::Harness harness("fig6_txn_overhead", argc, argv);
  print_figure6(harness);
  print_figure6b(harness);
  return harness.finish() ? 0 : 1;
}

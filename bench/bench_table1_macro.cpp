// Table 1: throughput of PERSEAS for the debit-credit (TPC-B style) and
// order-entry (TPC-C style) benchmarks, across several database sizes (the
// paper: "we have used various-sized databases, and in all cases the
// performance of PERSEAS was almost constant, as long as the database was
// smaller than the main memory size").
#include <cstdio>

#include "bench/bench_util.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/order_entry.hpp"

namespace {

using namespace perseas;

workload::WorkloadResult run_debit_credit(bench::Harness& harness,
                                          const workload::DebitCreditOptions& o,
                                          std::uint64_t txns) {
  workload::LabOptions lo;
  lo.db_size = workload::DebitCredit::required_db_size(o);
  lo.perseas.undo_capacity = 4 << 20;
  lo.trace = harness.trace();
  lo.metrics = harness.metrics();
  lo.trace_label = "perseas debit-credit";
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  workload::DebitCredit w(lab.engine(), o);
  w.load();
  auto result = w.run(txns);
  w.check_invariants();
  if (harness.metrics() != nullptr) lab.export_metrics(*harness.metrics());
  return result;
}

workload::WorkloadResult run_order_entry(bench::Harness& harness,
                                         const workload::OrderEntryOptions& o,
                                         std::uint64_t txns) {
  workload::LabOptions lo;
  lo.db_size = workload::OrderEntry::required_db_size(o);
  lo.perseas.undo_capacity = 4 << 20;
  lo.trace = harness.trace();
  lo.metrics = harness.metrics();
  lo.trace_label = "perseas order-entry";
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  workload::OrderEntry w(lab.engine(), o);
  w.load();
  auto result = w.run(txns);
  w.check_invariants();
  if (harness.metrics() != nullptr) lab.export_metrics(*harness.metrics());
  return result;
}

void print_table1(bench::Harness& harness) {
  bench::print_header("Table 1: PERSEAS throughput for debit-credit and order-entry",
                      "Papathanasiou & Markatos 1997, table 1");

  std::printf("--- debit-credit (TPC-B style), various database sizes ---\n");
  std::printf("%16s %14s %14s\n", "db size (bytes)", "txns/s", "us/txn");
  for (const std::uint32_t accounts : {1'000u, 10'000u, 40'000u}) {
    workload::DebitCreditOptions o;
    o.accounts_per_branch = accounts;
    const auto size = workload::DebitCredit::required_db_size(o);
    const std::uint64_t txns = harness.quick() ? 500 : 10'000;
    const auto r = run_debit_credit(harness, o, txns);
    std::printf("%16llu %14.0f %14.2f\n", static_cast<unsigned long long>(size),
                r.txns_per_second(), r.latency.mean_us());
    harness.add_row(obs::Json::object()
                        .set("workload", "debit-credit")
                        .set("db_bytes", size)
                        .set("txns", txns)
                        .set("mean_us", r.latency.mean_us())
                        .set("txns_per_second", r.txns_per_second()));
  }

  std::printf("\n--- order-entry (TPC-C style), various database sizes ---\n");
  std::printf("%16s %14s %14s\n", "db size (bytes)", "txns/s", "us/txn");
  for (const std::uint32_t items : {1'000u, 5'000u, 20'000u}) {
    workload::OrderEntryOptions o;
    o.items = items;
    const auto size = workload::OrderEntry::required_db_size(o);
    const std::uint64_t txns = harness.quick() ? 250 : 5'000;
    const auto r = run_order_entry(harness, o, txns);
    std::printf("%16llu %14.0f %14.2f\n", static_cast<unsigned long long>(size),
                r.txns_per_second(), r.latency.mean_us());
    harness.add_row(obs::Json::object()
                        .set("workload", "order-entry")
                        .set("db_bytes", size)
                        .set("txns", txns)
                        .set("mean_us", r.latency.mean_us())
                        .set("txns_per_second", r.txns_per_second()));
  }

  std::printf("\npaper table 1: debit-credit > 20,000 txns/s; order-entry in the\n"
              "thousands; throughput ~constant while the DB fits in memory.\n");
}

}  // namespace

int main(int argc, char** argv) {
  perseas::bench::Harness harness("table1_macro", argc, argv);
  print_table1(harness);
  return harness.finish() ? 0 : 1;
}

// Multi-threaded debit-credit: throughput as a function of real OS worker
// threads (1/2/4/8) driving one shared PERSEAS through the engine slot
// API — the workload::run_mt_debit_credit frontend on the workload worker
// pool.  The workers truly race, so the numbers measure the pool's
// per-thread virtual-time discipline (sim::ThreadClock) on top of the
// multi-transaction core: the disjoint rows keep up to eight transactions
// open at once with zero conflicts, and the conflicting rows make workers
// lose first-writer-wins races, abort and retry with a fresh pick.
//
// Reported time is SIMULATED time: each worker's charges accumulate on its
// own virtual timeline and the workload makespan is the slowest worker's
// busy time, so disjoint partitions scale near-linearly by construction —
// what the bench actually guards is (1) that the threaded path costs the
// same simulated work per transaction as the serial one, (2) the >1.5x
// speedup floor at 4 threads, and (3) exact cost-ledger conservation
// (sum(ledger) == shared clock delta == sum of worker busy time) with all
// charges flowing through thread-local clock fronts.  The conflicting
// cells run once with a ledger attached and once without, so each row
// says which ("ledger": true|false) and the conflict counts of the two
// can be compared: an observer must not change what it observes.
//
// With threads > 1 the exact numbers are NOT bit-deterministic: the shared
// undo log allocates in arrival order, so each transaction's remote undo
// offsets — and with them per-burst alignment costs — depend on thread
// interleaving.  What IS exact, every run: the conservation identities and
// the workload's invariants.  threads=1 keeps the fully deterministic
// single-threaded cost model (and the committed fig6/table1/BENCH_trend
// numbers are untouched — they never route through this driver).
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "obs/cost_ledger.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace {

using namespace perseas;

workload::DebitCreditOptions bank_options() {
  workload::DebitCreditOptions o;
  // Eight branches so the bank partitions evenly across up to eight
  // workers (worker w owns the branches congruent to w mod threads).
  o.branches = 8;
  o.tellers_per_branch = 10;
  o.accounts_per_branch = 1'000;
  return o;
}

struct MtRun {
  workload::PoolResult result;
  bool ledger = false;
  std::uint64_t clock_delta_ns = 0;
  std::uint64_t ledger_ns = 0;
};

// One measured run on a fresh lab, with a cost ledger attached or not.
// With --trace every worker records its scopes on its own lane of the
// run's track.
MtRun run_threads(bench::Harness& harness, std::uint32_t threads, std::uint64_t txns_per_thread,
                  std::uint64_t conflict_every, bool with_ledger) {
  const auto o = bank_options();
  workload::LabOptions lo;
  lo.db_size = workload::DebitCredit::required_db_size(o);
  lo.perseas.undo_capacity = 4 << 20;
  lo.trace = harness.trace();
  lo.trace_label = "mt threads=" + std::to_string(threads) +
                   (conflict_every != 0 ? " conflict" : "") + (with_ledger ? "" : " no-ledger");
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  workload::DebitCredit bank(lab.engine(), o);
  bank.load();

  // A conflicting run's victim: a transaction on the spare slot after the
  // workers', held by this thread for the whole run, claims branch 0's
  // row, the row every raid declares last.  Every raid therefore loses,
  // whatever the host timing, so the cell's conflict count has a floor.
  const bool victim = conflict_every != 0;
  if (victim) {
    lab.engine().begin_slot(threads);
    lab.engine().set_range_slot(threads, 0, workload::DebitCredit::kRowBytes);
  }

  obs::CostLedger ledger;
  if (with_ledger) lab.cluster().set_ledger(&ledger);
  const sim::SimTime attach = lab.cluster().clock().now();

  workload::MtOptions mo;
  mo.threads = threads;
  mo.txns_per_thread = txns_per_thread;
  mo.conflict_every = conflict_every;
  mo.app_compute = o.app_compute;

  MtRun run;
  run.result = workload::run_mt_debit_credit(lab.engine(), bank, mo);
  run.ledger = with_ledger;
  run.clock_delta_ns = static_cast<std::uint64_t>(lab.cluster().clock().now() - attach);
  run.ledger_ns = static_cast<std::uint64_t>(ledger.total_ns());
  lab.cluster().set_ledger(nullptr);
  if (victim) lab.engine().abort_slot(threads);
  bank.check_invariants();
  if (harness.metrics() != nullptr) lab.export_metrics(*harness.metrics());
  return run;
}

bool check_conservation(const char* where, const MtRun& run) {
  bool ok = true;
  if (run.ledger && run.ledger_ns != run.clock_delta_ns) {
    std::fprintf(stderr,
                 "bench_mt: LEDGER CONSERVATION VIOLATED (%s): sum(ledger)=%llu ns but the "
                 "shared clock advanced %llu ns\n",
                 where, static_cast<unsigned long long>(run.ledger_ns),
                 static_cast<unsigned long long>(run.clock_delta_ns));
    ok = false;
  }
  if (static_cast<std::uint64_t>(run.result.total_work_ns) != run.clock_delta_ns) {
    std::fprintf(stderr,
                 "bench_mt: WORKER TIME NOT CONSERVED (%s): sum(worker busy)=%llu ns but the "
                 "shared clock advanced %llu ns\n",
                 where, static_cast<unsigned long long>(run.result.total_work_ns),
                 static_cast<unsigned long long>(run.clock_delta_ns));
    ok = false;
  }
  return ok;
}

void print_scaling(bench::Harness& harness, bool& ok) {
  bench::print_header("Multi-threaded debit-credit: throughput vs worker threads",
                      "real OS threads over per-thread virtual time, disjoint partitions");
  std::printf("%8s %10s %12s %14s %14s %10s\n", "threads", "txns", "us/txn", "txns/s",
              "makespan us", "speedup");
  const std::uint64_t txns_per_thread = harness.quick() ? 250 : 2'500;
  double base_tps = 0.0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    const MtRun run = run_threads(harness, threads, txns_per_thread, 0, true);
    if (!check_conservation("disjoint", run)) ok = false;
    if (run.result.conflicts != 0) {
      std::fprintf(stderr, "bench_mt: disjoint partitions conflicted (%llu)\n",
                   static_cast<unsigned long long>(run.result.conflicts));
      ok = false;
    }
    const double tps = run.result.txns_per_second();
    if (threads == 1) base_tps = tps;
    const double speedup = base_tps > 0 ? tps / base_tps : 0.0;
    if (threads == 4 && speedup <= 1.5) {
      std::fprintf(stderr, "bench_mt: 4-thread speedup %.2fx is under the 1.5x floor\n",
                   speedup);
      ok = false;
    }
    std::printf("%8u %10llu %12.2f %14.0f %14.1f %9.2fx\n", threads,
                static_cast<unsigned long long>(run.result.commits),
                run.result.latency.mean_us(), tps,
                sim::to_us(run.result.makespan_ns), speedup);
    harness.add_row(obs::Json::object()
                        .set("mode", "disjoint")
                        .set("ledger", true)
                        .set("threads", static_cast<std::uint64_t>(threads))
                        .set("txns_per_thread", txns_per_thread)
                        .set("txns", run.result.commits)
                        .set("conflicts", run.result.conflicts)
                        .set("mean_us", run.result.latency.mean_us())
                        .set("txns_per_second", tps)
                        .set("makespan_ns", static_cast<std::uint64_t>(run.result.makespan_ns))
                        .set("total_work_ns",
                             static_cast<std::uint64_t>(run.result.total_work_ns))
                        .set("clock_delta_ns", run.clock_delta_ns)
                        .set("speedup", speedup));
  }
  std::printf("\nanchor: disjoint partitions never touch each other's rows, so the\n"
              "        per-thread virtual timelines overlap fully and simulated\n"
              "        throughput scales with the thread count; every charged\n"
              "        nanosecond still lands in the shared clock and the ledger.\n");
}

void print_conflicts(bench::Harness& harness, bool& ok) {
  bench::print_header("Multi-threaded debit-credit: cross-thread first-writer-wins",
                      "workers 1..N-1 periodically raid partition 0 and lose");
  std::printf("%16s %8s %10s %12s %14s %12s\n", "conflict every", "ledger", "txns", "us/txn",
              "txns/s", "conflicts");
  const std::uint64_t txns_per_thread = harness.quick() ? 250 : 2'500;
  for (const std::uint64_t every : {16ull, 4ull}) {
    for (const bool with_ledger : {true, false}) {
      const MtRun run = run_threads(harness, 4, txns_per_thread, every, with_ledger);
      if (!check_conservation("conflicting", run)) ok = false;
      std::printf("%16llu %8s %10llu %12.2f %14.0f %12llu\n",
                  static_cast<unsigned long long>(every), with_ledger ? "on" : "off",
                  static_cast<unsigned long long>(run.result.commits),
                  run.result.latency.mean_us(), run.result.txns_per_second(),
                  static_cast<unsigned long long>(run.result.conflicts));
      harness.add_row(obs::Json::object()
                          .set("mode", "conflicting")
                          .set("ledger", with_ledger)
                          .set("threads", std::uint64_t{4})
                          .set("conflict_every", every)
                          .set("txns_per_thread", txns_per_thread)
                          .set("txns", run.result.commits)
                          .set("conflicts", run.result.conflicts)
                          .set("mean_us", run.result.latency.mean_us())
                          .set("txns_per_second", run.result.txns_per_second())
                          .set("makespan_ns",
                               static_cast<std::uint64_t>(run.result.makespan_ns))
                          .set("total_work_ns",
                               static_cast<std::uint64_t>(run.result.total_work_ns))
                          .set("clock_delta_ns", run.clock_delta_ns)
                          .set("speedup", 0.0));
    }
  }
  std::printf("\nanchor: the main thread holds a claim on branch 0's row, so every\n"
              "        raid loses: conflicts >= (threads - 1) x floor(txns / every),\n"
              "        with the ledger attached and without.  A loss costs one\n"
              "        abort plus a fresh disjoint retry; commits always reach\n"
              "        threads x txns and the balance invariants hold in every cell.\n");
}

}  // namespace

int main(int argc, char** argv) {
  perseas::bench::Harness harness("mt_txns", argc, argv);
  bool ok = true;
  print_scaling(harness, ok);
  print_conflicts(harness, ok);
  return harness.finish() && ok ? 0 : 1;
}

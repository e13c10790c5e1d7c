// Concurrency-control policy sweep: the contention workload
// (workload::run_contention — Zipf-skewed read/write transactions with a
// long-vs-short mix) driven across policy x theta x threads, so the three
// core::CcPolicy implementations can be compared on the workloads where
// they actually disagree.
//
// The bench's claims:
//   1. every cell reaches its full commit count — losses are retried, so
//      no policy ever wedges the workload;
//   2. at theta >= 0.9 the policies diverge: first-writer-wins rejects at
//      declare time (reason "conflict" only), wait-die splits its losses
//      between waited retries and wound aborts, and validate-at-commit
//      converts read-write races into validation failures at commit;
//   3. the abort-reason breakdown is conserved in every cell:
//      wounded + validation_failed <= conflicts, and FWW keeps both
//      specialised counters at exactly zero.
//
// Reported time is SIMULATED time on the per-thread virtual timelines
// (same regime as bench_mt); with threads > 1 the exact numbers are not
// bit-deterministic, so tools/check-bench-json.py checks the structural
// invariants above rather than golden values.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/perseas_config.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace {

using namespace perseas;

const char* policy_name(core::CcPolicyKind kind) {
  switch (kind) {
    case core::CcPolicyKind::kFirstWriterWins: return "fww";
    case core::CcPolicyKind::kWaitDie: return "wait-die";
    case core::CcPolicyKind::kValidateAtCommit: return "validate";
  }
  return "unknown";
}

struct CcRun {
  workload::PoolResult result;
  std::uint64_t clock_delta_ns = 0;
};

CcRun run_cell(bench::Harness& harness, core::CcPolicyKind policy, double theta,
               std::uint32_t threads, std::uint64_t txns_per_thread) {
  workload::ContentionOptions co;
  co.threads = threads;
  co.txns_per_thread = txns_per_thread;
  co.rows = 256;  // small row space so skew produces real collisions
  co.row_bytes = 64;
  co.theta = theta;
  co.write_ratio = 0.5;

  workload::LabOptions lo;
  lo.db_size = co.rows * co.row_bytes;
  lo.perseas.undo_capacity = 4 << 20;
  lo.perseas.cc_policy = policy;
  lo.trace = harness.trace();
  lo.trace_label = std::string("cc:") + policy_name(policy);
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);

  const sim::SimTime before = lab.cluster().clock().now();
  CcRun run;
  run.result = workload::run_contention(lab.engine(), co);
  run.clock_delta_ns = static_cast<std::uint64_t>(lab.cluster().clock().now() - before);
  if (harness.metrics() != nullptr) lab.export_metrics(*harness.metrics());
  return run;
}

// The per-cell invariants every policy must satisfy regardless of
// interleaving: full commit count, reason counters conserved, and the
// specialised reasons confined to the policies that can produce them.
bool check_cell(core::CcPolicyKind policy, double theta, std::uint32_t threads,
                std::uint64_t expected_commits, const CcRun& run) {
  bool ok = true;
  const auto& r = run.result;
  if (r.commits != expected_commits) {
    std::fprintf(stderr, "bench_cc: %s theta=%.2f threads=%u committed %llu of %llu\n",
                 policy_name(policy), theta, threads,
                 static_cast<unsigned long long>(r.commits),
                 static_cast<unsigned long long>(expected_commits));
    ok = false;
  }
  if (r.wounded + r.validation_failed > r.conflicts) {
    std::fprintf(stderr, "bench_cc: %s theta=%.2f threads=%u reason counters exceed the "
                         "conflict total\n",
                 policy_name(policy), theta, threads);
    ok = false;
  }
  if (policy != core::CcPolicyKind::kWaitDie && r.wounded != 0) {
    std::fprintf(stderr, "bench_cc: %s wounded %llu transactions but only wait-die wounds\n",
                 policy_name(policy), static_cast<unsigned long long>(r.wounded));
    ok = false;
  }
  if (policy != core::CcPolicyKind::kValidateAtCommit && r.validation_failed != 0) {
    std::fprintf(stderr,
                 "bench_cc: %s failed validation %llu times but only validate-at-commit "
                 "validates\n",
                 policy_name(policy), static_cast<unsigned long long>(r.validation_failed));
    ok = false;
  }
  return ok;
}

void print_sweep(bench::Harness& harness, bool& ok) {
  bench::print_header("Concurrency-control policies under skewed contention",
                      "policy x theta x threads over the Zipf contention workload");
  std::printf("%10s %6s %8s %8s %10s %10s %8s %10s %12s\n", "policy", "theta", "threads",
              "txns", "conflicts", "wounded", "vfail", "us/txn", "txns/s");

  const std::uint64_t txns_per_thread = harness.quick() ? 50 : 400;
  const auto thetas = harness.quick() ? std::vector<double>{0.0, 0.99}
                                      : std::vector<double>{0.0, 0.6, 0.9, 0.99};
  const auto thread_counts =
      harness.quick() ? std::vector<std::uint32_t>{4} : std::vector<std::uint32_t>{1, 4};
  constexpr core::CcPolicyKind kPolicies[] = {core::CcPolicyKind::kFirstWriterWins,
                                              core::CcPolicyKind::kWaitDie,
                                              core::CcPolicyKind::kValidateAtCommit};

  for (const double theta : thetas) {
    for (const std::uint32_t threads : thread_counts) {
      for (const core::CcPolicyKind policy : kPolicies) {
        const CcRun run = run_cell(harness, policy, theta, threads, txns_per_thread);
        if (!check_cell(policy, theta, threads,
                        static_cast<std::uint64_t>(threads) * txns_per_thread, run)) {
          ok = false;
        }
        const auto& r = run.result;
        std::printf("%10s %6.2f %8u %8llu %10llu %10llu %8llu %10.2f %12.0f\n",
                    policy_name(policy), theta, threads,
                    static_cast<unsigned long long>(r.commits),
                    static_cast<unsigned long long>(r.conflicts),
                    static_cast<unsigned long long>(r.wounded),
                    static_cast<unsigned long long>(r.validation_failed),
                    r.latency.mean_us(), r.txns_per_second());
        harness.add_row(obs::Json::object()
                            .set("mode", "cc_sweep")
                            .set("policy", policy_name(policy))
                            .set("theta", theta)
                            .set("threads", static_cast<std::uint64_t>(threads))
                            .set("write_ratio", 0.5)
                            .set("txns_per_thread", txns_per_thread)
                            .set("txns", r.commits)
                            .set("conflicts", r.conflicts)
                            .set("wounded", r.wounded)
                            .set("validation_failed", r.validation_failed)
                            .set("mean_us", r.latency.mean_us())
                            .set("txns_per_second", r.txns_per_second())
                            .set("makespan_ns", static_cast<std::uint64_t>(r.makespan_ns))
                            .set("total_work_ns", static_cast<std::uint64_t>(r.total_work_ns))
                            .set("clock_delta_ns", run.clock_delta_ns));
      }
    }
    std::printf("\n");
  }
  std::printf("anchor: contention grows with theta, and the hot rows force the\n"
              "        policies apart — FWW rejects at declare time, wait-die waits\n"
              "        or wounds by age, validate-at-commit aborts the readers whose\n"
              "        snapshots went stale; every cell still reaches full commits.\n");
}

}  // namespace

int main(int argc, char** argv) {
  perseas::bench::Harness harness("cc_sweep", argc, argv);
  bool ok = true;
  print_sweep(harness, ok);
  return harness.finish() && ok ? 0 : 1;
}

// Ablations of the design choices DESIGN.md calls out:
//   1. the sci_memcpy alignment optimization (paper section 4),
//   2. the mirroring degree (paper uses 1 remote mirror; k is supported),
//   3. eager vs lazy remote undo pushes.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "netram/sci_link.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perseas;

void print_scimemcpy_ablation() {
  std::printf("\n--- ablation 1: sci_memcpy strategy (remote store latency, us) ---\n");
  const netram::SciLinkModel link(sim::HardwareProfile::forth_1997().sci);
  std::printf("%8s %8s | %12s %12s %12s\n", "bytes", "offset", "as-issued", "aligned-64",
              "optimized");
  for (const std::uint64_t size : {16ULL, 32ULL, 48ULL, 64ULL, 100ULL, 128ULL, 1024ULL}) {
    for (const std::uint64_t offset : {0ULL, 4ULL, 60ULL}) {
      std::printf("%8llu %8llu | %12.2f %12.2f %12.2f\n",
                  static_cast<unsigned long long>(size),
                  static_cast<unsigned long long>(offset),
                  sim::to_us(link.store_burst(offset, size).total),
                  sim::to_us(link.aligned_store_burst(offset, size).total),
                  sim::to_us(link.optimized_store_burst(offset, size).total));
    }
  }
}

void print_library_level_ablation() {
  std::printf("\n--- ablation 2: PERSEAS with/without the sci_memcpy optimization ---\n");
  for (const bool optimized : {true, false}) {
    workload::LabOptions lo;
    lo.perseas.optimized_sci_memcpy = optimized;
    workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
    workload::SyntheticWorkload w(lab.engine(), 56);
    const auto r = w.run(20'000);
    bench::print_row(optimized ? "perseas (optimized memcpy)" : "perseas (naive memcpy)",
                     r.txns_per_second(), r.latency.mean_us());
  }
}

void print_mirror_degree_ablation() {
  std::printf("\n--- ablation 3: mirroring degree (4-byte transactions) ---\n");
  for (const std::uint32_t mirrors : {1u, 2u, 3u}) {
    netram::ClusterConfig cc;
    cc.node_count = mirrors + 1;
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), cc);
    std::vector<std::unique_ptr<netram::RemoteMemoryServer>> servers;
    std::vector<netram::RemoteMemoryServer*> ptrs;
    for (std::uint32_t m = 0; m < mirrors; ++m) {
      servers.push_back(std::make_unique<netram::RemoteMemoryServer>(cluster, m + 1));
      ptrs.push_back(servers.back().get());
    }
    core::Perseas db(cluster, 0, ptrs, {});
    auto rec = db.persistent_malloc(1 << 16);
    db.init_remote_db();
    const auto t0 = cluster.clock().now();
    constexpr int kN = 10'000;
    for (int i = 0; i < kN; ++i) {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 4);
      rec.bytes()[0] = static_cast<std::byte>(i);
      txn.commit();
    }
    const double mean_us = sim::to_us(cluster.clock().now() - t0) / kN;
    char name[64];
    std::snprintf(name, sizeof name, "perseas (%u mirror%s)", mirrors, mirrors > 1 ? "s" : "");
    bench::print_row(name, 1e6 / mean_us, mean_us);
  }
  std::printf("each extra mirror adds one more SCI burst per operation;\n"
              "the paper deploys 1 mirror on an independent power supply.\n");
}

void print_undo_policy_ablation() {
  std::printf("\n--- ablation 4: eager (paper) vs lazy remote undo push ---\n");
  for (const bool eager : {true, false}) {
    workload::LabOptions lo;
    lo.perseas.eager_remote_undo = eager;
    workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
    workload::SyntheticWorkload w(lab.engine(), 64);
    const auto r = w.run(20'000);
    bench::print_row(eager ? "perseas (eager undo, paper)" : "perseas (lazy undo)",
                     r.txns_per_second(), r.latency.mean_us());
  }
  std::printf("same total cost; eager pays it in set_range, lazy in commit.\n");
}

void print_cost_breakdown() {
  std::printf("\n--- where a PERSEAS transaction's time goes (per txn, us) ---\n");
  std::printf("%10s | %10s %12s %12s %12s %10s\n", "txn bytes", "local-undo", "remote-undo",
              "propagation", "commit-flags", "total");
  for (const std::uint64_t size : {4ULL, 100ULL, 4096ULL, 65536ULL}) {
    workload::LabOptions lo;
    lo.db_size = 1 << 20;
    workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
    auto& engine = dynamic_cast<workload::PerseasEngine&>(lab.engine());
    workload::SyntheticWorkload w(lab.engine(), size);
    const std::uint64_t n = size >= 65536 ? 100 : 2000;
    const auto result = w.run(n);
    const auto& s = engine.perseas().stats();
    const double dn = static_cast<double>(n);
    std::printf("%10llu | %10.2f %12.2f %12.2f %12.2f %10.2f\n",
                static_cast<unsigned long long>(size),
                sim::to_us(s.time_local_undo) / dn, sim::to_us(s.time_remote_undo) / dn,
                sim::to_us(s.time_propagation) / dn, sim::to_us(s.time_commit_flags) / dn,
                result.latency.mean_us());
  }
  std::printf("small transactions are launch-latency bound (undo push + flag\n"
              "stores); large ones are SCI-streaming-bandwidth bound.\n");
}

}  // namespace

int main() {
  bench::print_header("Ablations: sci_memcpy strategy, mirroring degree, undo policy",
                      "Papathanasiou & Markatos 1997, section 4 + DESIGN.md section 5");
  print_scimemcpy_ablation();
  print_library_level_ablation();
  print_mirror_degree_ablation();
  print_undo_policy_ablation();
  print_cost_breakdown();
}

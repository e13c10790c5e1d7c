// Section 2 quantitative arguments against the alternative substrates the
// paper surveys:
//   - network file systems (Sprite, xfs): forced minimum block-size
//     transfers dominate small transactions;
//   - eNVy-style battery-backed NVRAM: honest performance (~30,000 txns/s
//     per the paper's quote) but special hardware — PERSEAS beats it on
//     commodity parts anyway;
//   - remote-memory WAL (Ioanidis et al.): already in bench_comparison.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perseas;

double run_tps(workload::EngineKind kind, std::uint64_t txn_bytes, std::uint64_t txns) {
  workload::EngineLab lab(kind);
  workload::SyntheticWorkload w(lab.engine(), txn_bytes);
  return w.run(txns).txns_per_second();
}

void print_block_size_argument() {
  std::printf("\n--- network-file-system mirroring: the block-size penalty ---\n");
  std::printf("%12s %16s %16s %10s\n", "txn bytes", "fs-mirror", "perseas", "ratio");
  for (const std::uint64_t size : {4ULL, 64ULL, 1024ULL, 8192ULL, 65536ULL}) {
    const double fs = run_tps(workload::EngineKind::kFsMirror, size, 2'000);
    const double ps = run_tps(workload::EngineKind::kPerseas, size, 2'000);
    std::printf("%12llu %16.0f %16.0f %9.1fx\n", static_cast<unsigned long long>(size), fs,
                ps, ps / fs);
  }
  std::printf("paper section 2: \"our approach would still result in better\n"
              "performance due to the minimum (block) size transfers that all\n"
              "file systems are forced to have\" — the gap collapses only once\n"
              "transactions approach the block size.\n");
}

void print_nvram_argument() {
  std::printf("\n--- battery-backed NVRAM (eNVy-style) vs PERSEAS ---\n");
  const double nvram = run_tps(workload::EngineKind::kRvmNvram, 4, 20'000);
  const double perseas = run_tps(workload::EngineKind::kPerseas, 4, 20'000);
  bench::print_row("rvm-nvram (eNVy-style)", nvram, 1e6 / nvram);
  bench::print_row("perseas", perseas, 1e6 / perseas);
  std::printf("paper section 2 quotes eNVy at I/O rates \"corresponding to\n"
              "30,000 transactions per second\" (measured here: %.0f); PERSEAS\n"
              "exceeds it ~%.0fx on commodity hardware, which is the paper's\n"
              "cost-effectiveness argument in performance form.\n",
              nvram, perseas / nvram);
}

}  // namespace

int main() {
  bench::print_header("Related-work substrates: FS-block mirroring and NVRAM",
                      "Papathanasiou & Markatos 1997, section 2 arguments");
  print_block_size_argument();
  print_nvram_argument();
}

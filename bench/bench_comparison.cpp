// Section 5.1 comparison narrative: PERSEAS vs RVM (disk), RVM with group
// commit, Rio-RVM, Vista, and the remote-WAL of Ioanidis et al., on short
// synthetic transactions and on both macro-benchmarks.  Regenerates the
// "orders of magnitude" quotes of the paper.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/order_entry.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perseas;

constexpr workload::EngineKind kAll[] = {
    workload::EngineKind::kRvmDisk,   workload::EngineKind::kRvmDiskGroupCommit,
    workload::EngineKind::kRvmRio,    workload::EngineKind::kRemoteWal,
    workload::EngineKind::kVista,     workload::EngineKind::kPerseas,
};

std::uint64_t short_txn_count(workload::EngineKind kind) {
  switch (kind) {
    case workload::EngineKind::kRvmDisk: return 300;
    case workload::EngineKind::kRvmRio: return 3'000;
    case workload::EngineKind::kPerseas:
    case workload::EngineKind::kVista:
    case workload::EngineKind::kRvmDiskGroupCommit:
    case workload::EngineKind::kRvmNvram:
    case workload::EngineKind::kRemoteWal:
    case workload::EngineKind::kFsMirror:
      return 60'000;  // enough to saturate remote-wal's disk buffer
  }
  return 60'000;  // unreachable: the switch above is exhaustive
}

void print_short_synthetic() {
  std::printf("\n--- short synthetic transactions (4 bytes, sustained) ---\n");
  double perseas_tps = 0;
  for (const auto kind : kAll) {
    workload::EngineLab lab(kind);
    workload::SyntheticWorkload w(lab.engine(), 4);
    if (kind == workload::EngineKind::kRemoteWal) {
      // Sustained means after the disk write-behind buffer has filled —
      // the whole point of this comparator (paper section 2).
      w.run(30'000);
    }
    const auto result = w.run(short_txn_count(kind));
    bench::print_row(std::string(to_string(kind)).c_str(), result.txns_per_second(),
                     result.latency.mean_us());
    if (kind == workload::EngineKind::kPerseas) perseas_tps = result.txns_per_second();
  }
  std::printf("\npaper quotes (short txns): PERSEAS > 100k/s; ~4 orders over RVM;\n"
              "~2 orders over Rio-RVM; ~1 order over group commit; close to Vista.\n");
  std::printf("(measured PERSEAS: %.0f txns/s)\n", perseas_tps);
}

template <typename Workload, typename Options>
void print_macro(const char* title, const Options& options, std::uint64_t scale) {
  std::printf("\n--- %s ---\n", title);
  workload::LabOptions lo;
  lo.db_size = Workload::required_db_size(options);
  lo.perseas.undo_capacity = 4 << 20;
  for (const auto kind : kAll) {
    workload::EngineLab lab(kind, lo);
    Workload w(lab.engine(), options);
    w.load();
    const std::uint64_t txns = kind == workload::EngineKind::kRvmDisk ? scale / 40 : scale;
    const auto result = w.run(txns);
    w.check_invariants();
    bench::print_row(std::string(to_string(kind)).c_str(), result.txns_per_second(),
                     result.latency.mean_us());
  }
}

}  // namespace

int main() {
  bench::print_header("Engine comparison: PERSEAS vs RVM / Rio-RVM / Vista / remote-WAL",
                      "Papathanasiou & Markatos 1997, section 5.1 narrative");

  print_short_synthetic();

  workload::DebitCreditOptions dc;
  dc.branches = 2;
  dc.accounts_per_branch = 2'000;
  dc.history_capacity = 8'192;
  print_macro<workload::DebitCredit>("debit-credit (TPC-B style)", dc, 8'000);

  workload::OrderEntryOptions oe;
  oe.items = 2'000;
  print_macro<workload::OrderEntry>("order-entry (TPC-C style)", oe, 4'000);
}

// The host heap cost of a PERSEAS transaction.
//
// PERSEAS's argument (paper §1) is that a transaction costs three memory
// copies and nothing else.  On the host that means a steady-state
// transaction reuses what earlier ones built — its context, its undo
// images, the protocol's scratch buffers — instead of calling the
// allocator.  This binary replaces the global operator new/delete with
// counting versions, so these claims are measured, not inferred:
//   - after warm-up, debit-credit commits allocate nothing, under the
//     default config and under each variant that takes another code path
//     (two mirrors, lazy undo, coalescing off, wait-die, validate);
//   - an attached cost ledger grows its row storage geometrically, not a
//     block per row;
//   - one huge transaction does not pin its buffers afterwards (buffers
//     above core::kRetainedBufferBytes are released when it closes);
//   - a threaded batch allocates per thread, not per transaction.
// The write-set validator (PERSEAS_VALIDATE_WRITES) snapshots records by
// design, and a trace (PERSEAS_TRACE) stores a span per phase, so the
// counting assertions are skipped when either is switched on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/perseas.hpp"
#include "obs/cost_ledger.hpp"
#include "sim/random.hpp"
#include "workload/debit_credit.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Every block carries its size in a header, so a delete can debit the live
// byte count; the header keeps the malloc alignment.  Out of line, so the
// compiler never sees a malloc'd block reach a delete expression.
constexpr std::size_t kHeader = alignof(std::max_align_t);

[[gnu::noinline]] void* counted_alloc(std::size_t n) noexcept {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  std::memcpy(raw, &n, sizeof n);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return static_cast<std::byte*>(raw) + kHeader;
}

[[gnu::noinline]] void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<std::byte*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, raw, sizeof n);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace perseas {
namespace {

/// Allocations made, and live heap bytes gained, since construction.
class HeapWindow {
 public:
  [[nodiscard]] std::uint64_t allocs() const { return g_allocs.load() - allocs_; }
  [[nodiscard]] std::int64_t live_delta() const { return g_live_bytes.load() - live_; }

 private:
  std::uint64_t allocs_ = g_allocs.load();
  std::int64_t live_ = g_live_bytes.load();
};

/// Why the counts cannot hold for this instance, or empty when they must.
std::string observed_by_design(const core::Perseas& db, const netram::Cluster& cluster) {
  if (db.validating()) return "the write-set validator snapshots records by design";
  if (cluster.sinks().trace != nullptr) return "a trace stores one span per phase by design";
  return {};
}

struct Variant {
  const char* name;
  std::uint32_t mirrors = 1;
  bool eager_remote_undo = true;
  bool coalesce_ranges = true;
  core::CcPolicyKind cc_policy = core::CcPolicyKind::kFirstWriterWins;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class SteadyStateAllocTest : public ::testing::TestWithParam<Variant> {};

TEST_P(SteadyStateAllocTest, DebitCreditCommitsAllocateNothing) {
  const Variant& v = GetParam();
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 1 + v.mirrors);
  std::vector<std::optional<netram::RemoteMemoryServer>> servers(v.mirrors);
  std::vector<netram::RemoteMemoryServer*> mirrors;
  for (std::uint32_t i = 0; i < v.mirrors; ++i) {
    mirrors.push_back(&servers[i].emplace(cluster, i + 1));
  }

  workload::DebitCreditOptions o;
  o.accounts_per_branch = 1'000;
  core::PerseasConfig config;
  config.eager_remote_undo = v.eager_remote_undo;
  config.coalesce_ranges = v.coalesce_ranges;
  config.cc_policy = v.cc_policy;
  workload::PerseasEngine engine(cluster, 0, mirrors, workload::DebitCredit::required_db_size(o),
                                 config);
  if (const std::string why = observed_by_design(engine.perseas(), cluster); !why.empty()) {
    GTEST_SKIP() << why;
  }
  workload::DebitCredit bank(engine, o);
  bank.load();
  // Warm-up: the first transactions size the reused buffers, and the
  // flight recorder's ring grows to its capacity.
  for (int i = 0; i < 200; ++i) (void)bank.run_one();
  ASSERT_EQ(cluster.flight().size(), cluster.flight().capacity());

  const std::uint64_t committed = engine.perseas().stats().txns_committed;
  const HeapWindow window;
  for (int i = 0; i < 1'000; ++i) (void)bank.run_one();
  const std::uint64_t allocs = window.allocs();
  EXPECT_EQ(allocs, 0u) << v.name << ": heap allocations in 1,000 steady-state commits";
  EXPECT_EQ(engine.perseas().stats().txns_committed, committed + 1'000);
  bank.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SteadyStateAllocTest,
    ::testing::Values(Variant{.name = "default"}, Variant{.name = "two_mirrors", .mirrors = 2},
                      Variant{.name = "lazy_undo", .eager_remote_undo = false},
                      Variant{.name = "coalescing_off", .coalesce_ranges = false},
                      Variant{.name = "wait_die", .cc_policy = core::CcPolicyKind::kWaitDie},
                      Variant{.name = "validate",
                              .cc_policy = core::CcPolicyKind::kValidateAtCommit}),
    [](const ::testing::TestParamInfo<Variant>& info) { return std::string(info.param.name); });

// A ledger books a row per (transaction, phase), but its row storage
// doubles as it grows instead of allocating per row, so 1,000 commits
// into a fresh ledger (8,001 rows) allocate a few dozen times.
TEST(LedgerAllocTest, RowStorageGrowsGeometrically) {
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
  netram::RemoteMemoryServer server(cluster, 1);
  workload::DebitCreditOptions o;
  o.accounts_per_branch = 1'000;
  workload::PerseasEngine engine(cluster, 0, {&server}, workload::DebitCredit::required_db_size(o),
                                 {});
  if (const std::string why = observed_by_design(engine.perseas(), cluster); !why.empty()) {
    GTEST_SKIP() << why;
  }
  workload::DebitCredit bank(engine, o);
  bank.load();
  for (int i = 0; i < 200; ++i) (void)bank.run_one();
  ASSERT_EQ(cluster.flight().size(), cluster.flight().capacity());

  obs::CostLedger ledger;
  cluster.set_ledger(&ledger);
  const sim::SimTime attach = cluster.clock().now();
  const HeapWindow window;
  for (int i = 0; i < 1'000; ++i) (void)bank.run_one();
  const std::uint64_t allocs = window.allocs();
  cluster.set_ledger(nullptr);

  const std::size_t rows = ledger.entries().size();
  EXPECT_GT(rows, 8'000u) << "one row per transaction and phase";
  EXPECT_LE(allocs, 100u) << rows << " ledger rows took " << allocs << " heap allocations";
  EXPECT_EQ(ledger.total_ns(), cluster.clock().now() - attach);
}

// A 1 MiB transaction's before-image and serialized undo entry exceed the
// retention cap, so neither outlives it: once a small transaction has run
// after it, the live heap is back where it was before the large one.
TEST(RetentionCapTest, LargeTransactionBuffersAreReleased) {
  constexpr std::uint64_t kLarge = 1 << 20;
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
  netram::RemoteMemoryServer server(cluster, 1);
  core::Perseas db(cluster, 0, {&server}, {});
  if (const std::string why = observed_by_design(db, cluster); !why.empty()) GTEST_SKIP() << why;
  const core::RecordHandle rec = db.persistent_malloc(kLarge);
  db.init_remote_db();

  const auto small_txn = [&db, &rec](std::uint64_t i) {
    core::Transaction txn = db.begin_transaction();
    txn.set_range(rec, (i * 64) % kLarge, 64);
    std::memset(rec.bytes().data() + (i * 64) % kLarge, static_cast<int>(i), 64);
    txn.commit();
  };
  std::uint64_t i = 0;
  while (cluster.flight().size() < cluster.flight().capacity()) small_txn(i++);

  const HeapWindow window;
  {
    core::Transaction txn = db.begin_transaction();
    txn.set_range(rec, 0, kLarge);
    std::memset(rec.bytes().data(), 0x5a, kLarge);
    txn.commit();
  }
  small_txn(i++);
  EXPECT_LE(std::llabs(window.live_delta()),
            static_cast<long long>(core::kRetainedBufferBytes))
      << "live heap moved by " << window.live_delta() << " bytes across a 1 MiB transaction";
}

// Threads: a pooled batch allocates for its threads and its result rows,
// never per transaction, so 1,000 transactions per worker allocate exactly
// as often as 100.
TEST(MtAllocTest, BatchAllocationsDoNotGrowWithTransactions) {
  workload::DebitCreditOptions o;
  o.branches = 8;
  o.tellers_per_branch = 10;
  o.accounts_per_branch = 200;
  workload::LabOptions lo;
  lo.db_size = workload::DebitCredit::required_db_size(o);
  // Room for all of a batch's undo entries even if its transactions never
  // all close at once (the shared log's tail rewinds only when none is
  // open), so a log growth, a one-time allocation, cannot land in one
  // batch and not the other.
  lo.perseas.undo_capacity = 4 << 20;
  workload::EngineLab lab(workload::EngineKind::kPerseas, lo);
  auto& engine = static_cast<workload::PerseasEngine&>(lab.engine());
  if (const std::string why = observed_by_design(engine.perseas(), lab.cluster()); !why.empty()) {
    GTEST_SKIP() << why;
  }
  workload::DebitCredit bank(engine, o);
  bank.load();

  constexpr std::uint32_t kThreads = 4;
  // Warm every context a batch can use: kThreads transactions of the
  // batch's shape open at once, so each has sized its buffers and the
  // claim table has held all of their claims together.
  sim::Rng rng(1);
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    const workload::DebitCredit::TxnPlan plan = bank.plan_partitioned(w, kThreads, 0, rng, false);
    engine.begin_slot(w);
    bank.apply_plan(w, plan);
    bank.add_committed_delta(plan.delta);
  }
  for (std::uint32_t w = 0; w < kThreads; ++w) engine.commit_slot(w);

  const auto batch = [&](std::uint64_t txns_per_thread) {
    workload::MtOptions mo;
    mo.threads = kThreads;
    mo.txns_per_thread = txns_per_thread;
    const HeapWindow window;
    const workload::PoolResult r = workload::run_mt_debit_credit(engine, bank, mo);
    const std::uint64_t allocs = window.allocs();
    EXPECT_EQ(r.commits, kThreads * txns_per_thread);
    return allocs;
  };
  (void)batch(100);  // fills the flight recorder's ring
  const std::uint64_t small = batch(100);
  const std::uint64_t large = batch(1'000);
  EXPECT_EQ(large, small) << "a batch of 1,000 transactions per thread allocated " << large
                          << " times, one of 100 " << small;
  EXPECT_LT(small, 20u * kThreads) << "thread and result setup should be a few blocks each";
  bank.check_invariants();
}

}  // namespace
}  // namespace perseas

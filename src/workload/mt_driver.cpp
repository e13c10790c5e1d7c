#include "workload/mt_driver.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/conflict_table.hpp"
#include "core/thread_shards.hpp"
#include "sim/clock.hpp"
#include "sim/random.hpp"
#include "workload/zipf.hpp"

namespace perseas::workload {

namespace {

/// The k-th consecutive loss of one transaction waits
/// first_backoff << min(k - 1, kBackoffCapShift) before the retry.
constexpr std::uint64_t kBackoffCapShift = 6;
/// Hard cap on attempts per transaction: a livelocked policy surfaces as a
/// thrown error, not a hung run.
constexpr std::uint64_t kMaxAttempts = 100'000;

// The worker pool both workloads run on.  Worker w commits
// o.txns_per_thread transactions on slot w; each attempt is
// body(w, txn, attempt, rng) with the 0-based transaction index and the
// 1-based attempt number.  The body begins the slot, does the work, charges
// app compute and commits; a core::TxnConflict out of it is a loss, which
// the pool aborts, counts, backs off (first_backoff on the worker's own
// timeline, 0 = immediate retry) and retries.  Bodies run concurrently on
// the spawned threads, so they touch only thread-safe surfaces and state
// owned by their worker.
template <typename Body>
PoolResult run_workers(const char* who, TxnEngine& engine, const PoolOptions& o,
                       sim::SimDuration first_backoff, const Body& body) {
  if (o.threads == 0) {
    throw std::invalid_argument(std::string(who) + ": need at least one thread");
  }
  if (engine.max_open_txns() < o.threads) {
    throw std::invalid_argument(std::string(who) + ": engine '" + std::string(engine.name()) +
                                "' cannot keep " + std::to_string(o.threads) +
                                " transactions open");
  }

  PoolResult out;
  out.workers.resize(o.threads);

  std::atomic<bool> start{false};
  std::atomic<bool> quit{false};
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::exception_ptr> errors(o.threads);

  const auto worker_loop = [&](std::uint32_t w) {
    // Tallied on the worker's own stack and stored once at the end: the
    // rows of out.workers share cache lines.
    WorkerResult res;
    sim::Rng rng(sim::SplitMix64(o.seed + w).next());
    res.worker = w;
    res.latencies.reserve(o.txns_per_thread);
    (void)sync::this_thread_shard_id();  // held until the thread exits

    ready.fetch_add(1, std::memory_order_release);
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();

    sim::ThreadClock tc(engine.cluster().clock(), w + 1);
    for (std::uint64_t i = 0; i < o.txns_per_thread; ++i) {
      if (quit.load(std::memory_order_acquire)) break;
      for (std::uint64_t attempt = 1;; ++attempt) {
        if (attempt > kMaxAttempts) {
          throw std::runtime_error(std::string(who) + ": worker " + std::to_string(w) +
                                   " exceeded " + std::to_string(kMaxAttempts) +
                                   " attempts — livelocked policy?");
        }
        const sim::SimDuration before = tc.local_time();
        try {
          body(w, i, attempt, rng);
        } catch (const core::TxnConflict& e) {
          engine.abort_slot(w);
          ++res.conflicts;
          switch (e.reason()) {
            case core::AbortReason::kWounded: ++res.wounded; break;
            case core::AbortReason::kValidationFailed: ++res.validation_failed; break;
            case core::AbortReason::kConflict: break;
          }
          if (first_backoff > 0) {
            tc.wait(first_backoff << std::min(attempt - 1, kBackoffCapShift));
          }
          tc.merge();  // sync point: the aborted attempt's cost joins the books
          continue;
        }
        res.latencies.push_back(tc.local_time() - before);
        ++res.commits;
        tc.merge();  // sync point: commit
        break;
      }
    }
    res.busy_ns = tc.local_time();
    out.workers[w] = std::move(res);
  };

  // A worker's exception, or a thread that failed to start, is kept for
  // the rethrow after the join and tells every other worker to quit.  It
  // also counts as ready, so the gate never waits for a worker that failed
  // before reaching it.
  const auto fail = [&](std::uint32_t w) {
    errors[w] = std::current_exception();
    quit.store(true, std::memory_order_release);
    ready.fetch_add(1, std::memory_order_release);
  };

  // The one sanctioned raw-thread call site (lint rule C exemption): the
  // frontend needs real OS threads — everything else in the tree stays on
  // perseas::sync wrappers and the simulated clock.
  std::vector<std::thread> threads;
  threads.reserve(o.threads);
  for (std::uint32_t w = 0; w < o.threads; ++w) {
    try {
      threads.emplace_back([&, w] {
        try {
          worker_loop(w);
        } catch (...) {
          fail(w);
        }
      });
    } catch (...) {
      fail(w);
    }
  }
  while (ready.load(std::memory_order_acquire) < o.threads) std::this_thread::yield();
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }

  // Fold the per-worker tallies on the coordinator, in worker order, so
  // every aggregate is deterministic.  The latency store is sized once, so
  // a run's allocations grow with its threads, not its transactions.
  std::size_t samples = 0;
  for (const WorkerResult& w : out.workers) samples += w.latencies.size();
  out.latency.reserve(samples);
  for (const WorkerResult& w : out.workers) {
    out.commits += w.commits;
    out.conflicts += w.conflicts;
    out.wounded += w.wounded;
    out.validation_failed += w.validation_failed;
    out.total_work_ns += w.busy_ns;
    out.makespan_ns = std::max(out.makespan_ns, w.busy_ns);
    for (const sim::SimDuration d : w.latencies) out.latency.record(d);
  }
  return out;
}

}  // namespace

PoolResult run_mt_debit_credit(TxnEngine& engine, DebitCredit& bank, const MtOptions& options) {
  // Committed deltas per worker, each written only by its own worker (on a
  // cache line of its own) and folded into the bank's bookkeeping after
  // the join.
  struct alignas(64) Delta {
    std::int64_t sum = 0;
  };
  std::vector<Delta> deltas(options.threads);
  PoolResult out = run_workers(
      "run_mt_debit_credit", engine, options, /*first_backoff=*/0,
      [&](std::uint32_t w, std::uint64_t i, std::uint64_t attempt, sim::Rng& rng) {
        // Workers other than 0 raid partition 0 every conflict_every-th
        // txn; after losing, the retry is a fresh pick from the worker's
        // own partition, so the raid costs one abort, never a livelock
        // against a long-held claim.
        const bool raid = options.conflict_every != 0 && w != 0 && attempt == 1 &&
                          (i + 1) % options.conflict_every == 0;
        const DebitCredit::TxnPlan plan =
            bank.plan_partitioned(w, options.threads, i, rng, raid);
        engine.begin_slot(w);
        bank.apply_plan(w, plan);
        engine.cluster().charge_cpu(engine.app_node(), options.app_compute);
        engine.commit_slot(w);
        deltas[w].sum += plan.delta;
      });
  for (const Delta& d : deltas) bank.add_committed_delta(d.sum);
  return out;
}

PoolResult run_contention(TxnEngine& engine, const ContentionOptions& options) {
  if (options.rows == 0 || options.row_bytes == 0) {
    throw std::invalid_argument("run_contention: rows and row_bytes must be positive");
  }
  // Divide rather than multiply: rows * row_bytes can wrap.
  if (options.row_bytes > engine.db_size() / options.rows) {
    throw std::invalid_argument("run_contention: rows * row_bytes exceeds the database");
  }

  // One shared sampler: the O(rows) normalisation constant is paid once,
  // then every worker draws from its own Rng stream through it (next() is
  // const — the sampler itself holds no mutable state).
  const FastZipf zipf(options.rows, options.theta);
  const std::span<std::byte> db = engine.db();
  return run_workers(
      "run_contention", engine, options, /*first_backoff=*/sim::us(1.0),
      [&](std::uint32_t w, std::uint64_t, std::uint64_t, sim::Rng& rng) {
        const std::uint32_t ops =
            rng.chance(options.long_fraction) ? options.long_ops : options.short_ops;
        engine.begin_slot(w);
        for (std::uint32_t op = 0; op < ops; ++op) {
          const std::uint64_t row = zipf.next(rng);
          const std::uint64_t offset = row * options.row_bytes;
          if (rng.chance(options.write_ratio)) {
            // Writes are whole-row set_range + pattern store.  The claim
            // covers the row, so this store can never race another
            // worker's: losers threw before touching bytes.
            engine.set_range_slot(w, offset, options.row_bytes);
            std::memset(db.subspan(offset, options.row_bytes).data(),
                        static_cast<int>((w + op) & 0xff), options.row_bytes);
          } else {
            // Reads only declare, so the optimistic policy's read set
            // grows without any unsynchronised byte loads.
            engine.read_range_slot(w, offset, options.row_bytes);
          }
          // Yield between operations so open transactions really overlap:
          // each op is brief real time, and without the handoff a worker
          // often runs its whole loop before the next worker is scheduled
          // — no claims would ever be held concurrently.
          std::this_thread::yield();
        }
        engine.cluster().charge_cpu(engine.app_node(), options.app_compute);
        engine.commit_slot(w);
      });
}

}  // namespace perseas::workload

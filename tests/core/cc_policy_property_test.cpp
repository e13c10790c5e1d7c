// Property tests for the pluggable concurrency-control policies
// (core/cc_policy.hpp), driven directly against a brute-force reference
// model: randomized begin/declare/read/commit/abort churn where every
// grant, rejection reason, and OCC validation verdict is recomputed from
// first principles, plus the lost-update serializability property for
// validate-at-commit and the 2^64-end regression tests for the shared
// core::ranges_overlap predicate both the claim table and the OCC
// intersection sit on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/cc_policy.hpp"
#include "core/range_set.hpp"
#include "core/txn_context.hpp"
#include "sim/random.hpp"
#include "sim/sim_time.hpp"

namespace perseas::core {
namespace {

constexpr std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1

// --- the shared overlap predicate ----------------------------------------

TEST(RangesOverlap, BasicCases) {
  EXPECT_TRUE(ranges_overlap(0, 10, 5, 10));
  EXPECT_TRUE(ranges_overlap(5, 10, 0, 10));
  EXPECT_TRUE(ranges_overlap(0, 10, 3, 2));   // containment
  EXPECT_TRUE(ranges_overlap(3, 2, 0, 10));
  EXPECT_FALSE(ranges_overlap(0, 10, 10, 5));  // adjacent: half-open
  EXPECT_FALSE(ranges_overlap(10, 5, 0, 10));
  EXPECT_FALSE(ranges_overlap(0, 10, 20, 5));
}

TEST(RangesOverlap, EmptyRangesOverlapNothing) {
  EXPECT_FALSE(ranges_overlap(0, 0, 0, 10));
  EXPECT_FALSE(ranges_overlap(0, 10, 5, 0));
  EXPECT_FALSE(ranges_overlap(7, 0, 7, 0));
}

TEST(RangesOverlap, RangesEndingAtTwoToTheSixtyFour) {
  // [2^64-8, 2^64) — a naive `offset + size` end computation wraps to 0
  // and would miss every intersection below.
  EXPECT_TRUE(ranges_overlap(kTop - 7, 8, kTop, 1));
  EXPECT_TRUE(ranges_overlap(kTop, 1, kTop - 7, 8));
  EXPECT_TRUE(ranges_overlap(kTop - 7, 8, kTop - 100, 101));
  EXPECT_FALSE(ranges_overlap(kTop - 7, 8, kTop - 100, 93));  // adjacent below
  EXPECT_FALSE(ranges_overlap(0, 10, kTop - 7, 8));
  // Both ranges end exactly at 2^64.
  EXPECT_TRUE(ranges_overlap(kTop - 15, 16, kTop - 3, 4));
}

TEST(RangesOverlap, ByteRangeOverloadAgreesWithRawForm) {
  const ByteRange a{kTop - 7, 8};
  const ByteRange b{kTop, 1};
  const ByteRange c{0, 8};
  EXPECT_TRUE(ranges_overlap(a, b));
  EXPECT_FALSE(ranges_overlap(a, c));
  EXPECT_EQ(ranges_overlap(a, b), ranges_overlap(a.offset, a.size, b.offset, b.size));
}

TEST(RangesTouch, AdjacencyIncludedEvenAtTheTop) {
  EXPECT_TRUE(ranges_touch(0, 10, 10, 5));   // adjacent merges
  EXPECT_FALSE(ranges_touch(0, 10, 11, 5));  // one-byte gap
  EXPECT_TRUE(ranges_touch(kTop - 7, 8, kTop - 100, 93));  // adjacent below 2^64-8
  EXPECT_FALSE(ranges_touch(kTop - 7, 8, kTop - 100, 92));
}

// --- randomized churn vs a brute-force reference --------------------------

struct RefTxn {
  std::uint64_t id = 0;
  std::uint64_t begin_seq = 0;  // committed-writer count at begin
  std::unique_ptr<TxnContext> ctx;
  // Granted write claims, as declared (the policy's table coalesces; the
  // reference keeps the raw list — overlap answers agree either way).
  std::vector<std::pair<std::uint32_t, ByteRange>> claims;
};

struct RefCommitted {
  std::uint64_t seq = 0;
  std::uint64_t txn = 0;
  std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>> write_set;
};

bool ref_sets_overlap(const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& a,
                      const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& b) {
  for (const auto& [rec_a, ranges_a] : a) {
    for (const auto& [rec_b, ranges_b] : b) {
      if (rec_a != rec_b) continue;
      for (const auto& x : ranges_a) {
        for (const auto& y : ranges_b) {
          if (ranges_overlap(x, y)) return true;
        }
      }
    }
  }
  return false;
}

enum class Kind { kFww, kWaitDie, kValidate };

std::unique_ptr<CcPolicy> make_policy(Kind kind) {
  PerseasConfig config;
  config.cc_wait = sim::us(3.0);
  switch (kind) {
    case Kind::kFww: config.cc_policy = CcPolicyKind::kFirstWriterWins; break;
    case Kind::kWaitDie: config.cc_policy = CcPolicyKind::kWaitDie; break;
    case Kind::kValidate: config.cc_policy = CcPolicyKind::kValidateAtCommit; break;
  }
  return make_cc_policy(config);
}

// Runs `rounds` random operations against `policy`, checking every decision
// against the reference model.  Returns the number of rejections seen, so
// callers can assert the churn actually exercised the conflict paths.
std::uint64_t churn(CcPolicy& policy, Kind kind, std::uint64_t seed, int rounds) {
  sim::Rng rng(seed);
  std::vector<RefTxn> open;
  std::vector<RefCommitted> committed;
  std::uint64_t next_id = 1;
  std::uint64_t commit_seq = 0;
  std::uint64_t rejections = 0;
  std::vector<ByteRange> fresh;  // declare()'s out-parameter, unused here

  const auto finish = [&](std::size_t i, bool commit) {
    RefTxn& t = open[i];
    if (commit) {
      const std::uint64_t writer = policy.on_validate(*t.ctx);
      // Brute-force backward validation: some committed write set newer
      // than t's begin snapshot intersects t's read set.
      bool ref_invalid = false;
      for (const auto& c : committed) {
        if (c.seq > t.begin_seq && ref_sets_overlap(c.write_set, t.ctx->read_set())) {
          ref_invalid = true;
          break;
        }
      }
      if (kind == Kind::kValidate) {
        EXPECT_EQ(writer != 0, ref_invalid) << "OCC verdict diverged from brute force";
      } else {
        EXPECT_EQ(writer, 0u) << "declare-time policies never fail validation";
      }
      if (writer == 0) {
        policy.on_commit(*t.ctx);
        if (!t.ctx->write_set().empty()) {
          committed.push_back(RefCommitted{++commit_seq, t.id, t.ctx->write_set()});
        }
      }
    }
    policy.on_release(t.id);
    EXPECT_EQ(policy.claims_of(t.id), 0u) << "release must drop every claim";
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
  };

  for (int round = 0; round < rounds; ++round) {
    const int op = static_cast<int>(rng.below(10));
    if (open.size() < 2 || (op < 3 && open.size() < 5)) {
      RefTxn t;
      t.id = next_id++;
      t.begin_seq = commit_seq;
      t.ctx = std::make_unique<TxnContext>(t.id);
      policy.on_begin(t.id);
      open.push_back(std::move(t));
      continue;
    }
    const std::size_t i = rng.below(open.size());
    RefTxn& t = open[i];
    if (op < 6) {  // declare a write
      const auto record = static_cast<std::uint32_t>(rng.below(3));
      const std::uint64_t offset = rng.below(256);
      const std::uint64_t size = 1 + rng.below(48);
      const std::size_t claims_before = policy.claims_of(t.id);
      const auto rejection = policy.on_declare(t.id, record, offset, size);

      // Reference grant decision: overlap with any *other* open txn's claim.
      std::vector<std::uint64_t> holders;
      for (const auto& o : open) {
        if (o.id == t.id) continue;
        for (const auto& [rec, r] : o.claims) {
          if (rec == record && ranges_overlap(r.offset, r.size, offset, size)) {
            holders.push_back(o.id);
          }
        }
      }
      if (!rejection.has_value()) {
        EXPECT_TRUE(holders.empty()) << "policy granted a claim the reference rejects";
        t.claims.emplace_back(record, ByteRange{offset, size});
        t.ctx->declare(record, offset, size, fresh);
      } else {
        ++rejections;
        EXPECT_FALSE(holders.empty()) << "policy rejected a claim nobody holds";
        EXPECT_NE(std::find(holders.begin(), holders.end(), rejection->holder),
                  holders.end())
            << "reported holder " << rejection->holder << " holds no overlapping claim";
        switch (kind) {
          case Kind::kFww:
          case Kind::kValidate:
            EXPECT_EQ(rejection->reason, AbortReason::kConflict);
            EXPECT_EQ(rejection->wait, 0);
            break;
          case Kind::kWaitDie:
            if (t.id < rejection->holder) {
              // Older requester waits, then retries.
              EXPECT_EQ(rejection->reason, AbortReason::kConflict);
              EXPECT_EQ(rejection->wait, sim::us(3.0));
            } else {
              // Younger requester dies on the spot.
              EXPECT_EQ(rejection->reason, AbortReason::kWounded);
              EXPECT_EQ(rejection->wait, 0);
            }
            break;
        }
        // A rejection leaves the table untouched: the transaction's own
        // claims survive exactly as they were.
        EXPECT_EQ(policy.claims_of(t.id), claims_before);
      }
    } else if (op < 8) {  // declare a read (plain bookkeeping, never rejected)
      const auto record = static_cast<std::uint32_t>(rng.below(3));
      t.ctx->declare_read(record, rng.below(256), 1 + rng.below(48));
    } else {
      finish(i, /*commit=*/op == 8);
    }
  }
  while (!open.empty()) finish(open.size() - 1, rng.chance(0.5));
  EXPECT_TRUE(policy.empty()) << "claims leaked after every transaction finished";
  return rejections;
}

TEST(CcPolicyProperty, FirstWriterWinsMatchesReference) {
  std::uint64_t rejections = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    auto policy = make_policy(Kind::kFww);
    rejections += churn(*policy, Kind::kFww, seed, 2000);
  }
  EXPECT_GT(rejections, 50u) << "churn too tame to exercise the conflict path";
}

TEST(CcPolicyProperty, WaitDieMatchesReferenceAndOrdersByAge) {
  std::uint64_t rejections = 0;
  for (const std::uint64_t seed : {44u, 55u, 66u}) {
    auto policy = make_policy(Kind::kWaitDie);
    rejections += churn(*policy, Kind::kWaitDie, seed, 2000);
  }
  EXPECT_GT(rejections, 50u);
}

TEST(CcPolicyProperty, ValidateAtCommitMatchesBruteForceValidation) {
  std::uint64_t rejections = 0;
  for (const std::uint64_t seed : {77u, 88u, 99u}) {
    auto policy = make_policy(Kind::kValidate);
    rejections += churn(*policy, Kind::kValidate, seed, 2000);
  }
  EXPECT_GT(rejections, 50u);
}

// The serializability property behind backward validation: increment
// transactions (read a cell, write read-value + 1 back) never lose an
// update when every commit passes on_validate — a stale read is always
// caught, so the final counter equals the number of validated commits.
TEST(CcPolicyProperty, ValidatedCommitsNeverLoseUpdates) {
  auto policy = make_policy(Kind::kValidate);
  sim::Rng rng(0xCC);
  constexpr std::uint32_t kCells = 4;
  std::uint64_t value[kCells] = {0, 0, 0, 0};
  std::uint64_t increments[kCells] = {0, 0, 0, 0};

  struct Inc {
    std::uint64_t id;
    std::uint32_t cell;
    std::uint64_t read_value;
    std::unique_ptr<TxnContext> ctx;
  };
  std::vector<Inc> open;
  std::uint64_t next_id = 1;
  std::vector<ByteRange> fresh;  // declare()'s out-parameter, unused here

  for (int round = 0; round < 4000; ++round) {
    if (open.size() < 4 && (open.empty() || rng.chance(0.5))) {
      Inc t;
      t.id = next_id++;
      t.cell = static_cast<std::uint32_t>(rng.below(kCells));
      t.ctx = std::make_unique<TxnContext>(t.id);
      policy->on_begin(t.id);
      // The optimistic read: note the committed value, record the range.
      t.read_value = value[t.cell];
      t.ctx->declare_read(t.cell, 0, 8);
      open.push_back(std::move(t));
      continue;
    }
    const std::size_t i = rng.below(open.size());
    Inc& t = open[i];
    // Declare the write just before committing; a write-claim collision
    // (another open incrementer on the same cell) aborts and retries.
    if (!policy->on_declare(t.id, t.cell, 0, 8).has_value()) {
      t.ctx->declare(t.cell, 0, 8, fresh);
      if (policy->on_validate(*t.ctx) == 0) {
        // Validation passed: the cell cannot have moved since the read.
        ASSERT_EQ(value[t.cell], t.read_value) << "lost update slipped past validation";
        value[t.cell] = t.read_value + 1;
        ++increments[t.cell];
        policy->on_commit(*t.ctx);
      }
    }
    policy->on_release(t.id);
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
  }
  for (const Inc& t : open) policy->on_release(t.id);
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < kCells; ++c) {
    EXPECT_EQ(value[c], increments[c]) << "cell " << c;
    total += increments[c];
  }
  EXPECT_GT(total, 100u) << "churn too tame to mean anything";
}

// History pruning: committed write-set snapshots are retained only while
// an open transaction could still validate against them.
TEST(CcPolicyProperty, ValidateHistoryIsPrunedToTheOldestOpenBegin) {
  ValidateAtCommit policy;

  std::vector<ByteRange> fresh;  // declare()'s out-parameter, unused here
  const auto commit_writer = [&](std::uint64_t id) {
    policy.on_begin(id);
    TxnContext ctx(id);
    EXPECT_FALSE(policy.on_declare(id, 0, id * 16 % 256, 8).has_value());
    ctx.declare(0, id * 16 % 256, 8, fresh);
    EXPECT_EQ(policy.on_validate(ctx), 0u);
    policy.on_commit(ctx);
    policy.on_release(id);
  };

  // Sequential transactions leave no history: nothing is open to validate
  // against them.
  for (std::uint64_t id = 1; id <= 5; ++id) commit_writer(id);
  EXPECT_EQ(policy.history_size(), 0u);

  // An old open transaction pins the history...
  policy.on_begin(100);
  for (std::uint64_t id = 101; id <= 110; ++id) commit_writer(id);
  EXPECT_EQ(policy.history_size(), 10u);

  // ...and releasing it lets the next commit prune everything.
  policy.on_release(100);
  commit_writer(200);
  EXPECT_EQ(policy.history_size(), 0u);
}

TEST(CcPolicyProperty, FactoryBuildsThePolicyTheConfigAsksFor) {
  EXPECT_EQ(make_policy(Kind::kFww)->name(), "fww");
  EXPECT_EQ(make_policy(Kind::kWaitDie)->name(), "wait-die");
  EXPECT_EQ(make_policy(Kind::kValidate)->name(), "validate");
}

}  // namespace
}  // namespace perseas::core

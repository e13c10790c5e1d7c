#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace perseas::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child must not replay the parent's sequence.
  Rng a2(42);
  a2.next();  // split consumed one draw
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += child.next() == a2.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kN = 160'000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kN; ++i) counts[rng.below(kBuckets)]++;
  for (const int c : counts) {
    EXPECT_NEAR(c, kN / kBuckets, 0.1 * kN / kBuckets);
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

}  // namespace
}  // namespace perseas::sim

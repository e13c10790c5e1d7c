// workload::FastZipf: analytic-frequency checks, relative skew, a head and
// tail sweep over (n, theta), the theta = 0 uniform degeneration, and the
// shared-normalisation-constant constructor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/random.hpp"
#include "workload/zipf.hpp"

namespace perseas::workload {
namespace {

TEST(FastZipf, StaysInRange) {
  sim::Rng rng(19);
  const FastZipf zipf(100, 0.8);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(zipf.next(rng), 100u);
}

// The Gray et al. recurrence is exact for the two hottest ranks: rank 0 is
// drawn with probability 1/zeta(n, theta) and rank 1 with 2^-theta /
// zeta(n, theta).  Compare observed frequencies against those analytic
// values within a generous sampling tolerance.
TEST(FastZipf, HeadFrequenciesMatchAnalyticValues) {
  constexpr std::uint64_t kN = 64;
  constexpr int kDraws = 200'000;
  for (const double theta : {0.3, 0.6, 0.9, 0.99}) {
    sim::Rng rng(23);
    const FastZipf zipf(kN, theta);
    const double zetan = zipf_zeta(kN, theta);
    std::vector<int> hits(kN, 0);
    for (int i = 0; i < kDraws; ++i) ++hits[zipf.next(rng)];

    const double p0 = 1.0 / zetan;
    const double p1 = std::pow(0.5, theta) / zetan;
    EXPECT_NEAR(static_cast<double>(hits[0]) / kDraws, p0, 0.01)
        << "rank 0 off its analytic frequency at theta " << theta;
    EXPECT_NEAR(static_cast<double>(hits[1]) / kDraws, p1, 0.01)
        << "rank 1 off its analytic frequency at theta " << theta;

    // The whole head (top quarter of ranks) carries the analytic mass
    // sum_{i<16}(1/(i+1)^theta)/zetan within a loose tolerance — the tail
    // of the recurrence is approximate, but not that approximate.
    double head_mass = 0.0;
    int head_hits = 0;
    for (std::uint64_t i = 0; i < kN / 4; ++i) {
      head_mass += 1.0 / std::pow(static_cast<double>(i + 1), theta) / zetan;
      head_hits += hits[i];
    }
    EXPECT_NEAR(static_cast<double>(head_hits) / kDraws, head_mass, 0.03)
        << "head mass off at theta " << theta;
  }
}

TEST(FastZipf, ThetaZeroIsExactlyUniform) {
  // theta = 0 must take the rng.below() path: bit-identical to a plain
  // uniform draw from the same stream, not merely statistically close.
  sim::Rng a(41);
  sim::Rng b(41);
  const FastZipf zipf(256, 0.0);
  for (int i = 0; i < 10'000; ++i) EXPECT_EQ(zipf.next(a), b.below(256));
}

TEST(FastZipf, ThetaZeroFrequenciesAreFlat) {
  sim::Rng rng(43);
  constexpr std::uint64_t kN = 16;
  constexpr int kDraws = 160'000;
  const FastZipf zipf(kN, 0.0);
  std::vector<int> hits(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++hits[zipf.next(rng)];
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / kDraws, 1.0 / kN, 0.01) << "rank " << i;
  }
}

TEST(FastZipf, LowerThetaIsLessSkewed) {
  sim::Rng rng(29);
  const FastZipf mild(1000, 0.2);
  const FastZipf steep(1000, 0.9);
  constexpr int kN = 50'000;
  int mild_head = 0;
  int steep_head = 0;
  for (int i = 0; i < kN; ++i) {
    mild_head += mild.next(rng) < 10;
    steep_head += steep.next(rng) < 10;
  }
  EXPECT_LT(mild_head, steep_head);
}

// Parameterized distribution sweep: every (n, theta) must cover both the
// head and some of the tail.
class ZipfSweep : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfSweep, CoversHeadAndTail) {
  const auto [n, theta] = GetParam();
  sim::Rng rng(31);
  const FastZipf zipf(n, theta);
  bool saw_zero = false;
  std::uint64_t max_seen = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto v = zipf.next(rng);
    ASSERT_LT(v, n);
    saw_zero |= v == 0;
    max_seen = std::max(max_seen, v);
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_GT(max_seen, n / 4) << "tail never sampled";
}

INSTANTIATE_TEST_SUITE_P(Distributions, ZipfSweep,
                         ::testing::Combine(::testing::Values(10ULL, 100ULL, 10'000ULL),
                                            ::testing::Values(0.1, 0.5, 0.8, 0.99)));

TEST(FastZipf, SharedZetanConstructorMatchesConvenienceConstructor) {
  const double zetan = zipf_zeta(512, 0.9);
  const FastZipf shared(512, 0.9, zetan);
  const FastZipf convenience(512, 0.9);
  sim::Rng a(53);
  sim::Rng b(53);
  for (int i = 0; i < 5'000; ++i) EXPECT_EQ(shared.next(a), convenience.next(b));
}

TEST(FastZipf, DeterministicAcrossInstances) {
  const FastZipf zipf(128, 0.7);
  sim::Rng a(59);
  sim::Rng b(59);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 1'000; ++i) first.push_back(zipf.next(a));
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(zipf.next(b), first[static_cast<std::size_t>(i)]);
}

}  // namespace
}  // namespace perseas::workload

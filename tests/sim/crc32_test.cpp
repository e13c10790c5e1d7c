#include "sim/crc32.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/random.hpp"

namespace perseas::sim {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next());
  return v;
}

using Kernel = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

// Every length 0-300 (so every tail after the 8-byte steps, many times
// over) at every start offset 0-7 of the buffer, under several seeds:
// `kernel` must return exactly what the table kernel returns.
void expect_matches_table(Kernel kernel) {
  constexpr std::size_t kMaxLength = 300;
  const auto buf = random_bytes(kMaxLength + 8, 7);
  Rng rng(11);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= kMaxLength; ++len) {
      const std::span<const std::byte> data = std::span(buf).subspan(start, len);
      const auto random_seed = static_cast<std::uint32_t>(rng.next());
      for (const std::uint32_t seed : {0xffffffffu, 0u, random_seed}) {
        ASSERT_EQ(kernel(data, seed), detail::crc32c_table(data, seed))
            << "start " << start << ", length " << len << ", seed " << seed;
      }
    }
  }
}

TEST(Crc32c, KnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32c_final(data), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_table(data, 0xffffffffu) ^ 0xffffffffu, 0xE3069283u);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c_final({}), 0u);
}

TEST(Crc32c, Deterministic) {
  const auto data = bytes_of("perseas");
  EXPECT_EQ(crc32c_final(data), crc32c_final(data));
}

TEST(Crc32c, SensitiveToEveryByte) {
  auto data = bytes_of("a quick brown fox jumps over the lazy dog");
  const auto baseline = crc32c_final(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto copy = data;
    copy[i] ^= std::byte{0x01};
    EXPECT_NE(crc32c_final(copy), baseline) << "flip at " << i;
  }
}

TEST(Crc32c, SensitiveToOrder) {
  EXPECT_NE(crc32c_final(bytes_of("ab")), crc32c_final(bytes_of("ba")));
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const auto whole = random_bytes(100, 3);
  const std::uint32_t one_shot = crc32c_final(whole);
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    const auto left = std::span(whole).first(cut);
    const auto right = std::span(whole).subspan(cut);
    EXPECT_EQ(crc32c(right, crc32c(left)) ^ 0xffffffffu, one_shot) << "cut at " << cut;
  }
}

TEST(Crc32c, DispatchedKernelMatchesTheTable) {
  expect_matches_table(&crc32c);
}

TEST(Crc32c, HardwareKernelMatchesTheTable) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "this CPU has no SSE4.2 crc32 instruction";
  expect_matches_table(&detail::crc32c_hw);
  const auto data = bytes_of("123456789");
  EXPECT_EQ(detail::crc32c_hw(data, 0xffffffffu) ^ 0xffffffffu, 0xE3069283u);
}

}  // namespace
}  // namespace perseas::sim

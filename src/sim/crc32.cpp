#include "sim/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace perseas::sim {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t crc = seed;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ static_cast<std::uint8_t>(b)) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__)

bool crc32c_hw_available() {
  // Fill in the feature data first: crc32c() may run from a static
  // initialiser, before the runtime's own constructor has done so.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

// Only this function is compiled for SSE4.2, so the rest of the build keeps
// the baseline instruction set and still runs on any x86-64 CPU.
[[gnu::target("sse4.2")]] std::uint32_t crc32c_hw(std::span<const std::byte> data,
                                                  std::uint32_t seed) {
  std::uint64_t crc = seed;
  for (; data.size() >= 8; data = data.subspan(8)) {
    // Little-endian: the word's low byte is the first byte in memory, the
    // order the table kernel consumes them in.
    std::uint64_t word = 0;
    std::memcpy(&word, data.data(), sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (const std::byte b : data) tail = _mm_crc32_u8(tail, static_cast<std::uint8_t>(b));
  return tail;
}

#else

bool crc32c_hw_available() { return false; }

std::uint32_t crc32c_hw(std::span<const std::byte> data, std::uint32_t seed) {
  return crc32c_table(data, seed);
}

#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const bool hw = detail::crc32c_hw_available();
  return hw ? detail::crc32c_hw(data, seed) : detail::crc32c_table(data, seed);
}

}  // namespace perseas::sim

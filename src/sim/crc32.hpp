// CRC-32C (Castagnoli), for integrity-checking log entries.
//
// The remote undo log is the single structure recovery depends on while a
// commit is in flight; a checksum per entry lets recovery distinguish the
// clean end of the log (stale bytes with a wrong magic) from actual
// corruption of an entry it needs.
//
// Two kernels compute it (crc32.cpp).  On an x86-64 CPU that reports
// SSE4.2 at run time, crc32c() feeds eight bytes per step to the `crc32`
// instruction, which computes exactly this CRC.  Every other CPU runs a
// byte-at-a-time 256-entry table loop, which is also the reference the
// tests hold the instruction to.  Values, seeds and chaining are
// bit-identical on both paths: an entry checksummed by one verifies on the
// other, so the undo-entry format, recovery and every dump or report built
// from checksums do not depend on the host CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace perseas::sim {

namespace detail {

/// The portable kernel and the reference: one table lookup per byte.
std::uint32_t crc32c_table(std::span<const std::byte> data, std::uint32_t seed);

/// True when the CPU has the SSE4.2 `crc32` instruction (x86-64 only).
bool crc32c_hw_available();

/// The instruction kernel, eight bytes per step.  Call it only when
/// crc32c_hw_available() holds; elsewhere it runs the table kernel.
std::uint32_t crc32c_hw(std::span<const std::byte> data, std::uint32_t seed);

}  // namespace detail

/// Incremental CRC-32C; pass the previous return value as `seed` to chain
/// buffers.  Final value for one-shot use is just the return value.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0xffffffffu);

/// One-shot convenience producing the conventional finalized value.
inline std::uint32_t crc32c_final(std::span<const std::byte> data) {
  return crc32c(data) ^ 0xffffffffu;
}

}  // namespace perseas::sim

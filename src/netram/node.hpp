// A simulated workstation: processor, DRAM arena, power-supply attachment,
// and crash state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "netram/arena_allocator.hpp"
#include "sim/failure.hpp"
#include "sim/sim_time.hpp"

namespace perseas::netram {

using NodeId = std::uint32_t;

/// One workstation in the cluster.  All mutation goes through Cluster so
/// that liveness checks and cost accounting are applied uniformly; Node
/// itself only owns state.
class Node {
 public:
  Node(NodeId id, std::string name, std::uint64_t arena_bytes, std::uint32_t power_supply);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t power_supply() const noexcept { return power_supply_; }
  void attach_power_supply(std::uint32_t supply) noexcept { power_supply_ = supply; }

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  /// Incremented on every crash; lets services detect that their host lost
  /// its state between two requests.
  [[nodiscard]] std::uint64_t crash_epoch() const noexcept { return crash_epoch_; }
  [[nodiscard]] sim::FailureKind last_failure() const noexcept { return last_failure_; }

  /// Takes the node down.  All DRAM contents are lost: [0, high water) of
  /// the arena — every byte handed out since the last restart, freed
  /// blocks included — is filled with a garbage pattern (not zeros) so that
  /// code which wrongly reads post-crash memory fails loudly in tests.
  /// Memory above the allocator's high-water mark was never handed out and
  /// is always zero, so the cost is the memory used, not the arena size.
  void crash(sim::FailureKind kind);

  /// Brings the node back up with empty, zeroed memory: zeroes [0, high
  /// water) and resets the allocator, which clears the mark.
  void restart();

  /// Node is up but temporarily unresponsive until simulated time
  /// `until` (a crashed file server, paper section 1).  Stalls accessors,
  /// loses nothing.
  void hang_until(sim::SimTime until) noexcept { hang_until_ = until; }
  [[nodiscard]] sim::SimTime hang_until() const noexcept { return hang_until_; }

  /// Bounds-checked view of arena memory.  Caller (Cluster) has already
  /// verified liveness; this throws only on out-of-range access, which is a
  /// simulation bug rather than a modelled fault.  Writers stay inside
  /// blocks the allocator handed out: crash and restart only wipe memory
  /// below the high-water mark.
  [[nodiscard]] std::span<std::byte> mem(std::uint64_t offset, std::uint64_t size);
  [[nodiscard]] std::span<const std::byte> mem(std::uint64_t offset, std::uint64_t size) const;

  [[nodiscard]] ArenaAllocator& allocator() noexcept { return allocator_; }
  [[nodiscard]] const ArenaAllocator& allocator() const noexcept { return allocator_; }
  [[nodiscard]] std::uint64_t arena_bytes() const noexcept { return arena_bytes_; }

 private:
  /// Unmaps an arena (the size is the node's arena_bytes_).
  struct UnmapArena {
    std::uint64_t bytes = 0;
    void operator()(std::byte* p) const noexcept;
  };

  NodeId id_;
  std::string name_;
  /// Zero-on-demand backing store, an anonymous private mapping: pages
  /// nobody touches are never faulted in, so an idle 64 MB arena costs
  /// nothing.  A mapping, not calloc, because sanitizer allocators zero or
  /// poison every byte of a calloc'd block (TSan: 62 ms per 64 MB).
  std::unique_ptr<std::byte, UnmapArena> arena_;
  std::uint64_t arena_bytes_;
  ArenaAllocator allocator_;
  std::uint32_t power_supply_;
  bool crashed_ = false;
  std::uint64_t crash_epoch_ = 0;
  sim::FailureKind last_failure_ = sim::FailureKind::kSoftwareCrash;
  sim::SimTime hang_until_ = 0;
};

}  // namespace perseas::netram

// First-fit free-list allocator over a node's physical-memory arena.
//
// Backs remote_malloc / remote_free on the server side (and local
// PERSEAS_malloc on the client side).  Offsets, not pointers, are handed
// out, because the arena's backing storage may be wiped and reallocated when
// a node crashes and restarts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace perseas::netram {

class ArenaAllocator {
 public:
  /// Manages [0, capacity) with the given minimum alignment for all blocks.
  explicit ArenaAllocator(std::uint64_t capacity, std::uint64_t min_align = 64);

  /// Allocates `size` bytes aligned to at least min_align; nullopt when no
  /// sufficient hole exists (no compaction: callers hold raw offsets).
  std::optional<std::uint64_t> allocate(std::uint64_t size);

  /// Frees a block previously returned by allocate().  Freeing an unknown
  /// offset is a programming error and returns false.
  bool free(std::uint64_t offset);

  /// True if `offset` is the start of a live allocation.
  [[nodiscard]] bool is_allocated(std::uint64_t offset) const noexcept;

  /// Size of the live allocation starting at `offset` (0 if none).
  [[nodiscard]] std::uint64_t allocation_size(std::uint64_t offset) const noexcept;

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t bytes_in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::uint64_t bytes_free() const noexcept { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t live_allocations() const noexcept { return live_.size(); }

  /// Largest single allocation that could currently succeed.
  [[nodiscard]] std::uint64_t largest_free_block() const noexcept;

  /// End of the highest block handed out since construction or the last
  /// reset().  free() never lowers it, so every byte any block has covered
  /// lies below it.
  [[nodiscard]] std::uint64_t high_water() const noexcept { return high_water_; }

  /// Releases every allocation (node restart) and clears the high-water
  /// mark.
  void reset();

 private:
  struct Hole {
    std::uint64_t offset;
    std::uint64_t size;
  };
  struct Live {
    std::uint64_t offset;
    std::uint64_t size;
  };

  [[nodiscard]] std::uint64_t round_up(std::uint64_t v) const noexcept {
    return (v + min_align_ - 1) / min_align_ * min_align_;
  }

  void insert_hole_coalescing(Hole hole);

  std::uint64_t capacity_;
  std::uint64_t min_align_;
  std::uint64_t in_use_ = 0;
  std::uint64_t high_water_ = 0;
  std::vector<Hole> holes_;  // sorted by offset, never adjacent
  std::vector<Live> live_;   // sorted by offset
};

}  // namespace perseas::netram

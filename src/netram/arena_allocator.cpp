#include "netram/arena_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace perseas::netram {

ArenaAllocator::ArenaAllocator(std::uint64_t capacity, std::uint64_t min_align)
    : capacity_(capacity), min_align_(min_align) {
  if (min_align == 0 || (min_align & (min_align - 1)) != 0) {
    throw std::invalid_argument("ArenaAllocator: min_align must be a power of two");
  }
  capacity_ = capacity / min_align_ * min_align_;
  if (capacity_ > 0) holes_.push_back(Hole{0, capacity_});
}

std::optional<std::uint64_t> ArenaAllocator::allocate(std::uint64_t size) {
  if (size == 0) return std::nullopt;
  const std::uint64_t need = round_up(size);
  for (std::size_t i = 0; i < holes_.size(); ++i) {
    if (holes_[i].size < need) continue;
    const std::uint64_t offset = holes_[i].offset;
    if (holes_[i].size == need) {
      holes_.erase(holes_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      holes_[i].offset += need;
      holes_[i].size -= need;
    }
    const auto pos = std::lower_bound(live_.begin(), live_.end(), offset,
                                      [](const Live& l, std::uint64_t o) { return l.offset < o; });
    live_.insert(pos, Live{offset, need});
    in_use_ += need;
    high_water_ = std::max(high_water_, offset + need);
    return offset;
  }
  return std::nullopt;
}

bool ArenaAllocator::free(std::uint64_t offset) {
  const auto it = std::lower_bound(live_.begin(), live_.end(), offset,
                                   [](const Live& l, std::uint64_t o) { return l.offset < o; });
  if (it == live_.end() || it->offset != offset) return false;
  const Hole hole{it->offset, it->size};
  in_use_ -= it->size;
  live_.erase(it);
  insert_hole_coalescing(hole);
  return true;
}

bool ArenaAllocator::is_allocated(std::uint64_t offset) const noexcept {
  const auto it = std::lower_bound(live_.begin(), live_.end(), offset,
                                   [](const Live& l, std::uint64_t o) { return l.offset < o; });
  return it != live_.end() && it->offset == offset;
}

std::uint64_t ArenaAllocator::allocation_size(std::uint64_t offset) const noexcept {
  const auto it = std::lower_bound(live_.begin(), live_.end(), offset,
                                   [](const Live& l, std::uint64_t o) { return l.offset < o; });
  return (it != live_.end() && it->offset == offset) ? it->size : 0;
}

std::uint64_t ArenaAllocator::largest_free_block() const noexcept {
  std::uint64_t best = 0;
  for (const auto& h : holes_) best = std::max(best, h.size);
  return best;
}

void ArenaAllocator::reset() {
  holes_.clear();
  live_.clear();
  in_use_ = 0;
  high_water_ = 0;
  if (capacity_ > 0) holes_.push_back(Hole{0, capacity_});
}

void ArenaAllocator::insert_hole_coalescing(Hole hole) {
  const auto pos = std::lower_bound(holes_.begin(), holes_.end(), hole.offset,
                                    [](const Hole& h, std::uint64_t o) { return h.offset < o; });
  const auto idx = static_cast<std::size_t>(pos - holes_.begin());
  holes_.insert(pos, hole);
  // Coalesce with successor first, then predecessor, so indices stay valid.
  if (idx + 1 < holes_.size() &&
      holes_[idx].offset + holes_[idx].size == holes_[idx + 1].offset) {
    holes_[idx].size += holes_[idx + 1].size;
    holes_.erase(holes_.begin() + static_cast<std::ptrdiff_t>(idx) + 1);
  }
  if (idx > 0 && holes_[idx - 1].offset + holes_[idx - 1].size == holes_[idx].offset) {
    holes_[idx - 1].size += holes_[idx].size;
    holes_.erase(holes_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

}  // namespace perseas::netram

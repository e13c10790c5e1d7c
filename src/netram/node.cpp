#include "netram/node.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

namespace perseas::netram {

namespace {

/// A zero-filled, zero-on-demand mapping of `bytes` bytes (nullptr for 0).
std::byte* map_arena(std::uint64_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

}  // namespace

void Node::UnmapArena::operator()(std::byte* p) const noexcept {
  if (p != nullptr) ::munmap(p, bytes);
}

Node::Node(NodeId id, std::string name, std::uint64_t arena_bytes, std::uint32_t power_supply)
    : id_(id),
      name_(std::move(name)),
      arena_(map_arena(arena_bytes), UnmapArena{arena_bytes}),
      arena_bytes_(arena_bytes),
      allocator_(arena_bytes),
      power_supply_(power_supply) {}

void Node::crash(sim::FailureKind kind) {
  crashed_ = true;
  ++crash_epoch_;
  last_failure_ = kind;
  // DRAM contents are gone.  0xDB ("dead byte") makes accidental reads of
  // lost memory visible in tests instead of silently reading zeros.  Only
  // bytes below the high-water mark were ever handed out; the rest is still
  // zero.
  std::fill_n(arena_.get(), allocator_.high_water(), std::byte{0xDB});
}

void Node::restart() {
  crashed_ = false;
  hang_until_ = 0;
  std::fill_n(arena_.get(), allocator_.high_water(), std::byte{0});
  allocator_.reset();
}

std::span<std::byte> Node::mem(std::uint64_t offset, std::uint64_t size) {
  if (offset + size > arena_bytes_ || offset + size < offset) {
    throw std::out_of_range("Node::mem: [" + std::to_string(offset) + ", +" +
                            std::to_string(size) + ") exceeds arena of node " + name_);
  }
  return {arena_.get() + offset, size};
}

std::span<const std::byte> Node::mem(std::uint64_t offset, std::uint64_t size) const {
  if (offset + size > arena_bytes_ || offset + size < offset) {
    throw std::out_of_range("Node::mem: [" + std::to_string(offset) + ", +" +
                            std::to_string(size) + ") exceeds arena of node " + name_);
  }
  return {arena_.get() + offset, size};
}

}  // namespace perseas::netram

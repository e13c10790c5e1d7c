// perseas::sync::ThreadShards — one private copy of some state per thread,
// merged when read.
//
// Counters that every transaction bumps (PerseasStats, NetworkStats, the
// failure injector's hit counts) and the blackbox's event staging would
// otherwise be one shared write per operation: one mutex, or one cache
// line that every worker's core fights over.  A ThreadShards<T> gives each
// thread that touches it its own T instead.  A thread reaches its shard
// through a one-entry thread_local cache keyed by the owner's serial number
// (never by address, so an owner built where another died cannot inherit
// its shards), so the hot path is a compare and a load; only a thread's
// first touch of an owner takes the owner's mutex.  The CostLedger's
// per-thread rows run on the same cache.
//
// Shards belong to thread *ids*, not threads: a thread takes the lowest
// free id the first time it touches any ThreadShards (or calls
// this_thread_shard_id) and returns it when it exits, and a later thread with that id carries on the dead thread's
// shards (the id registry's mutex orders the two).  So an owner holds at
// most one shard per thread that was ever alive at the same time as
// another, however many threads come and go.
//
// Reads (for_each, merged) take the owner's mutex to walk the shard list,
// but do not stop the owners of the shards from writing: a shard of plain
// fields may be read only once its threads have joined (or by the thread
// that writes it).  A shard that must be readable while its thread runs
// (the injector's hit counts, the recorder's staged events) is built from
// atomics.  Shards must not be touched from thread_local destructors: the
// thread's id may already have gone to another thread.
//
// Layering-neutral like sync.hpp: header-only, std plus sync.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sync.hpp"

namespace perseas::sync {

namespace detail {

/// Dense ids for live threads: acquire() hands out the lowest free id,
/// release() returns it.
class ThreadIds {
 public:
  static std::uint32_t acquire() {
    ThreadIds& ids = instance();
    LockGuard lock(ids.mu_);
    std::uint32_t id = 0;
    while (id < ids.used_.size() && ids.used_[id]) ++id;
    if (id == ids.used_.size()) ids.used_.push_back(false);
    ids.used_[id] = true;
    return id;
  }

  static void release(std::uint32_t id) noexcept {
    ThreadIds& ids = instance();
    LockGuard lock(ids.mu_);
    ids.used_[id] = false;
  }

 private:
  /// Never destroyed: a thread may exit after static destruction began.
  static ThreadIds& instance() {
    static ThreadIds* ids = new ThreadIds;
    return *ids;
  }

  Mutex mu_;
  std::vector<bool> used_ PERSEAS_GUARDED_BY(mu_);
};

/// The calling thread's id, held from its first call until it exits.
struct ThreadId {
  ThreadId() : value(ThreadIds::acquire()) {}
  ~ThreadId() { ThreadIds::release(value); }
  ThreadId(const ThreadId&) = delete;
  ThreadId& operator=(const ThreadId&) = delete;
  const std::uint32_t value;
};

}  // namespace detail

/// The calling thread's shard id, taken now if the thread has none yet.
/// A thread otherwise takes it at its first touch of a ThreadShards; a
/// pool calls this before its start gate, so every worker of a batch holds
/// its own id for the whole batch (one that finishes early cannot hand its
/// id, and its shards, to one that has not started yet), and the shards a
/// batch needs do not depend on how its threads were scheduled.
inline std::uint32_t this_thread_shard_id() {
  thread_local const detail::ThreadId id;
  return id.value;
}

template <typename T>
class ThreadShards {
 public:
  ThreadShards() : serial_(next_serial()) {}
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;

  /// The calling thread's shard, value-initialised on its first touch.
  [[nodiscard]] T& local() {
    if (cache_.owner == serial_) return *cache_.shard;
    return attach();
  }

  /// Calls fn(shard) for every shard, in the order threads first touched
  /// this owner.  fn must not call back into the owner.
  template <typename Fn>
  void for_each(Fn fn) {
    LockGuard lock(mu_);
    for (const std::unique_ptr<Shard>& s : shards_) fn(s->value);
  }
  template <typename Fn>
  void for_each(Fn fn) const {
    LockGuard lock(mu_);
    for (const std::unique_ptr<Shard>& s : shards_) fn(static_cast<const T&>(s->value));
  }

  /// Every shard folded with T's operator+= into a value-initialised T.
  [[nodiscard]] T merged() const {
    T total{};
    for_each([&total](const T& s) { total += s; });
    return total;
  }

  /// Distinct for every owner the process builds (per T).
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  /// Padded so two threads' shards never share a cache line.
  struct alignas(64) Shard {
    explicit Shard(std::uint32_t t) : thread(t) {}
    const std::uint32_t thread;
    T value{};
  };
  /// The calling thread's shard of the owner it touched last.
  struct Cache {
    std::uint64_t owner = 0;  ///< that owner's serial_ (0: none yet)
    T* shard = nullptr;
  };

  static std::uint64_t next_serial() noexcept {
    static std::atomic<std::uint64_t> serials{0};
    return serials.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  T& attach() {
    const std::uint32_t thread = this_thread_shard_id();
    LockGuard lock(mu_);
    Shard* shard = nullptr;
    for (const std::unique_ptr<Shard>& s : shards_) {
      if (s->thread == thread) shard = s.get();
    }
    if (shard == nullptr) shard = shards_.emplace_back(std::make_unique<Shard>(thread)).get();
    cache_ = Cache{serial_, &shard->value};
    return shard->value;
  }

  static thread_local Cache cache_;

  const std::uint64_t serial_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ PERSEAS_GUARDED_BY(mu_);
};

template <typename T>
inline thread_local typename ThreadShards<T>::Cache ThreadShards<T>::cache_;

}  // namespace perseas::sync

// perseas::sync — the repo's single concurrency vocabulary, checked at
// compile time.
//
// Every piece of mutable state the concurrent core shares between open
// transactions and between worker threads is annotated with
// the capability attributes below and protected by a sync::Mutex.  Under
// clang the annotations feed -Wthread-safety, so "which lock guards this
// field" and "which lock must the caller hold" are machine-checked on
// every build (CMake option PERSEAS_THREAD_SAFETY, default ON, promotes
// the warnings to errors); other compilers see empty macros and identical
// codegen.  tools/perseas-lint.py rule C enforces that this header is the
// only place outside sim/ that may name std::mutex or std::thread: all
// locking flows through this vocabulary or it does not compile into the
// tree at all.
//
// Discipline (kept simple so the analysis stays exhaustive):
//   * each class owns its Mutex; guarded members carry
//     PERSEAS_GUARDED_BY(mu_);
//   * public entry points take sync::LockGuard at the top; private
//     helpers that expect the lock carry PERSEAS_REQUIRES(mu_);
//   * callbacks and lambdas never touch guarded members (clang analyzes a
//     lambda body as an unrelated function, so capability state would be
//     lost — copy into locals instead);
//   * lock ordering is strictly outer-to-inner: Perseas::mu_ before any
//     component mutex (UndoLog, ConflictTable, the cc policy's own), never
//     the reverse, and no component calls back into Perseas.
//
// The locks a PERSEAS transaction still takes (everything else it touches
// is its own TxnContext or a per-thread shard, core/thread_shards.hpp):
//   * Perseas::mu_ at begin and at commit (and abort, recovery, allocation
//     and every change to the record registry): the orchestration lock,
//     which keeps commit flag windows one at a time;
//   * UndoLog::mu_ once per undo push, which reserves, writes, publishes
//     and hands over one entry as a unit;
//   * the conflict table's mutex once per set_range claim and once at
//     release.
// set_range and read_range take no outer lock: they run on the caller's
// own context and take the component locks above directly (with the
// write-set validator installed, set_range takes Perseas::mu_ as well).
// Undo-log growth is the one set_range step that needs the outer lock: it
// takes Perseas::mu_ and then UndoLog::mu_, so it sees every open
// context's pushed entries and never lands inside another commit's flag
// window.
//
// A Mutex spins before it blocks: lock() tries kSpinTries rounds of
// try_lock, with a CPU pause between them, before it parks in the kernel.
// The remaining critical sections are a few hundred nanoseconds long, so a
// waiter usually gets the lock while spinning instead of paying two
// context switches.  A spinning waiter only reads the lock's state until
// it looks free (test-and-test-and-set), so it does not steal the cache
// line from the holder on every round.
//
// This header is layering-neutral on purpose: it depends only on
// <mutex> and <atomic>, so sim/, netram/, obs/ and wal/ include it without pulling in
// any core type.
#pragma once

#include <atomic>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (clang thread-safety analysis; no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define PERSEAS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PERSEAS_THREAD_ANNOTATION(x)  // not clang: annotations vanish
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define PERSEAS_CAPABILITY(x) PERSEAS_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its constructor and releases in
/// its destructor.
#define PERSEAS_SCOPED_CAPABILITY PERSEAS_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be read or written while holding the named capability.
#define PERSEAS_GUARDED_BY(x) PERSEAS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be touched while holding it.
#define PERSEAS_PT_GUARDED_BY(x) PERSEAS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the caller to already hold the capability.
#define PERSEAS_REQUIRES(...) \
  PERSEAS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define PERSEAS_ACQUIRE(...) \
  PERSEAS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define PERSEAS_RELEASE(...) \
  PERSEAS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define PERSEAS_TRY_ACQUIRE(...) \
  PERSEAS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (self-deadlock guard for public
/// entry points that take the lock themselves).
#define PERSEAS_EXCLUDES(...) PERSEAS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define PERSEAS_RETURN_CAPABILITY(x) PERSEAS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for the analysis.  Deliberately unused in src/ (the
/// acceptance bar is zero suppressions); it exists for tests that probe
/// the annotations themselves.
#define PERSEAS_NO_THREAD_SAFETY_ANALYSIS \
  PERSEAS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace perseas::sync {

/// One round of a spin-wait: tells the CPU the thread is spinning, so a
/// hyper-threaded sibling gets the core and the loop leaves the memory
/// pipeline alone.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The repo's mutex: std::mutex wearing the capability attribute, so
/// clang can track what it guards.  Non-reentrant; see the lock-ordering
/// rule in the header comment.  lock() spins kSpinTries try_lock rounds
/// before it blocks (see the header comment).  Locking charges no
/// simulated time — the sim clock is a model of 1998 hardware, the mutex
/// is a property of the 2026 process running it.
class PERSEAS_CAPABILITY("mutex") Mutex {
 public:
  /// try_lock rounds before lock() blocks.
  static constexpr int kSpinTries = 200;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PERSEAS_ACQUIRE() {
    for (int i = 0; i < kSpinTries; ++i) {
      if (!held_.load(std::memory_order_relaxed) && mu_.try_lock()) {
        held_.store(true, std::memory_order_relaxed);
        return;
      }
      cpu_relax();
    }
    mu_.lock();
    held_.store(true, std::memory_order_relaxed);
  }
  void unlock() PERSEAS_RELEASE() {
    held_.store(false, std::memory_order_relaxed);
    mu_.unlock();
  }
  bool try_lock() PERSEAS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    held_.store(true, std::memory_order_relaxed);
    return true;
  }

 private:
  /// A cache line of its own: the lock word is written by every thread
  /// that takes it, so nothing read on a hot path may share its line.
  alignas(64) std::mutex mu_;
  /// A hint for spinners: true from acquisition to release.  Read without
  /// the lock, so it only says whether a try_lock is worth its write.
  std::atomic<bool> held_{false};
};

/// RAII lock with scope tracking: the analysis knows the capability is
/// held from construction to end of scope.  The only way library code
/// takes a Mutex.
class PERSEAS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) PERSEAS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() PERSEAS_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace perseas::sync

// Per-transaction state of the PERSEAS protocol.
//
// Every open transaction owns one TxnContext; the Transaction handle the
// caller holds carries it.  All state that used to live on the Perseas
// instance while "the" transaction was open — the local undo images, the
// merged write set, the raw declared-byte counter, and the per-phase
// simulated timings — lives here instead, so several transactions can be
// open concurrently on one database.  The context is plain local
// bookkeeping: the shared remote undo log (core/undo_log.hpp) and the
// mirror images (core/mirror_set.hpp) stay per-database.
//
// A context is driven by one thread at a time, the one holding its
// Transaction: set_range and read_range run on it without the
// orchestration lock.  Its scratch (set_range's fresh sub-ranges, staged
// before-images and serialized undo entry) lives here for that reason, and so does the view
// of the record registry taken at begin (the registry cannot change while
// a transaction is open).  Only the pushed undo entries are shared: undo-
// log growth re-logs every open context's, so they are appended under the
// undo log's lock (UndoLog::append) and read under it.
//
// Contexts are reused, not reallocated: a closed context goes to a free
// list on its Perseas (the list of the thread that built it), and reset()
// empties it while keeping its buffers (before-images, write-set and
// read-set ranges) for the next transaction, up to kRetainedBufferBytes.  A transaction whose shape repeats therefore
// commits without a heap allocation once its first run has sized them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/range_set.hpp"

namespace perseas::core {

/// One persistent record's local mapping (the unit of persistent_malloc).
struct LocalRecord {
  std::uint64_t local_offset = 0;
  std::uint64_t size = 0;
  bool mirrored = false;
};

/// One before-image captured by set_range (figure 3, step 1): the bytes of
/// [offset, offset+size) of `record` as they were before the transaction's
/// covered writes.  Restored newest-first on abort; serialized into the
/// remote undo log for crash rollback.
struct UndoImage {
  std::uint32_t record = 0;
  std::uint64_t offset = 0;
  std::vector<std::byte> before;
};

/// The most bytes kept for reuse between transactions: by one context's
/// buffers in all, and by each scratch buffer.  Anything beyond is
/// released — a context's when its transaction closes, the undo log's
/// serialized entry right after its push — so one large transaction does
/// not pin its memory for the life of the database.
inline constexpr std::size_t kRetainedBufferBytes = 64 << 10;

/// Empties `v`, keeping its capacity unless that exceeds
/// kRetainedBufferBytes.
template <typename T>
void clear_retaining(std::vector<T>& v) noexcept {
  v.clear();
  if (v.capacity() * sizeof(T) > kRetainedBufferBytes) std::vector<T>().swap(v);
}

class TxnContext {
 public:
  explicit TxnContext(std::uint64_t id) : id_(id) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Empties the context and gives it to transaction `id`.  The undo
  /// images' buffers and the write and read sets' range vectors are kept
  /// for reuse, up to kRetainedBufferBytes in all; the rest are released.
  void reset(std::uint64_t id);

  /// The record registry as begin saw it (set under the orchestration
  /// lock, read by the context's own thread while it is open).
  void bind_records(std::span<const LocalRecord> records) noexcept { records_ = records; }
  [[nodiscard]] std::span<const LocalRecord> records() const noexcept { return records_; }

  /// set_range's scratch, reused across its calls: the fresh sub-ranges
  /// of a declaration, their staged before-images, and the serialized
  /// undo entry of the image being pushed (built before the push takes the
  /// undo log's lock).
  [[nodiscard]] std::vector<ByteRange>& fresh() noexcept { return fresh_; }
  [[nodiscard]] std::vector<UndoImage>& staged() noexcept { return staged_; }
  [[nodiscard]] std::vector<std::byte>& entry() noexcept { return entry_; }

  /// An empty undo image for set_range to fill: one whose buffer an
  /// earlier transaction of this context left behind, when there is one.
  /// reset() hands them back in declaration order, so the i-th image of a
  /// transaction reuses the i-th buffer of the one before it.
  [[nodiscard]] UndoImage take_image();

  /// Merges a set_range declaration into this transaction's per-record
  /// union and refills `fresh` with the sub-ranges not previously covered
  /// (ascending, possibly empty) — the bytes that still need
  /// before-images.  Also advances the raw declared-byte counter.
  void declare(std::uint32_t record, std::uint64_t offset, std::uint64_t size,
               std::vector<ByteRange>& fresh);

  /// Merges a read_range declaration into this transaction's read set.
  /// Reads are plain bookkeeping — no before-image, no claim, no charge;
  /// only the validate-at-commit policy (core/cc_policy.hpp) ever consults
  /// the set, intersecting it with write sets committed since begin.
  void declare_read(std::uint32_t record, std::uint64_t offset, std::uint64_t size);

  /// The write set: per touched record (first-touch order), the merged,
  /// sorted union of declared intervals.  Commit propagates these.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>&
  write_set() const noexcept {
    return write_set_;
  }

  /// The read set, same shape as write_set(): per record, the merged union
  /// of read_range declarations.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>&
  read_set() const noexcept {
    return read_set_;
  }

  /// Local undo images in declaration order.  The prefix already pushed to
  /// the mirrors is tracked by pushed_entries() (eager mode pushes each
  /// image inside set_range and appends it here under the undo log's
  /// lock; lazy mode pushes them all inside commit).
  [[nodiscard]] std::vector<UndoImage>& undo() noexcept { return undo_; }
  [[nodiscard]] const std::vector<UndoImage>& undo() const noexcept { return undo_; }

  [[nodiscard]] std::size_t pushed_entries() const noexcept { return pushed_entries_; }
  void set_pushed_entries(std::size_t n) noexcept { pushed_entries_ = n; }

  [[nodiscard]] std::uint64_t declared_bytes() const noexcept { return declared_bytes_; }

  /// The free list this context goes back to when its transaction closes
  /// (set by the Perseas instance that built it).
  using FreeList = std::vector<std::unique_ptr<TxnContext>>;
  void set_home(FreeList* home) noexcept { home_ = home; }
  [[nodiscard]] FreeList* home() const noexcept { return home_; }

 private:
  using RecordRanges = std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>;

  /// `record`'s ranges in `set`, appended (with a pooled vector) on first
  /// touch.
  std::vector<ByteRange>& ranges_of(RecordRanges& set, std::uint32_t record);
  /// Charges `bytes` to the pools' budget; false when they would exceed
  /// kRetainedBufferBytes (the buffer is then released instead).
  bool retain(std::size_t bytes) noexcept;

  std::uint64_t id_;
  FreeList* home_ = nullptr;
  std::span<const LocalRecord> records_;
  std::vector<ByteRange> fresh_;
  std::vector<UndoImage> staged_;
  std::vector<std::byte> entry_;
  std::vector<UndoImage> undo_;
  std::size_t pushed_entries_ = 0;
  RecordRanges write_set_;
  RecordRanges read_set_;
  std::uint64_t declared_bytes_ = 0;
  /// Buffers a closed transaction left for the next one (take_image,
  /// ranges_of), and the bytes they hold.
  std::vector<UndoImage> spare_images_;
  std::vector<std::vector<ByteRange>> spare_ranges_;
  std::size_t spare_bytes_ = 0;
};

}  // namespace perseas::core

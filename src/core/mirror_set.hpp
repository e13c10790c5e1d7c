// Mirror bookkeeping of one PERSEAS database: the remote segments that
// make it recoverable.
//
// Each mirror is one remote-memory server holding the database's meta
// segment, the live undo-log segment, and one segment per record.  The
// MirrorSet owns segment lifecycle (create, connect-adopt on recovery,
// rebuild after a mirror crash, free on decommission) and the raw data
// pushes (metadata directory, record images, the 16-byte propagation-flag
// stores, and the gathered sci_memcpy_writev range propagation).  Commit
// *orchestration* — the flag/propagate/clear sequence with its failure
// notifies and observer callbacks — stays in core/perseas.cpp; recovery
// and failover share these primitives so a database rebuilt on another
// workstation is byte-identical to one built fresh.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/perseas_config.hpp"
#include "core/range_set.hpp"
#include "core/sync.hpp"
#include "core/txn_context.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"

namespace perseas::core {

/// One persistent record's local mapping (the unit of persistent_malloc).
struct LocalRecord {
  std::uint64_t local_offset = 0;
  std::uint64_t size = 0;
  bool mirrored = false;
};

class MirrorSet {
 public:
  struct Mirror {
    netram::RemoteMemoryServer* server = nullptr;
    netram::RemoteSegment meta;
    netram::RemoteSegment undo;
    std::vector<netram::RemoteSegment> db;
  };

  /// References must outlive the set; `stats` receives mirror_rebuilds.
  MirrorSet(netram::Cluster& cluster, netram::RemoteMemoryClient& client,
            netram::NodeId local, const PerseasConfig& config, PerseasStats& stats);

  MirrorSet(const MirrorSet&) = delete;
  MirrorSet& operator=(const MirrorSet&) = delete;

  /// Creates meta + undo segments on `server` and appends the mirror.
  /// Throws UsageError when the server already hosts this database,
  /// OutOfRemoteMemory when it cannot hold the segments.
  Mirror& add(netram::RemoteMemoryServer* server, std::uint64_t undo_capacity,
              std::uint64_t undo_gen);

  /// Appends a mirror whose segments were already connected (recovery).
  Mirror& adopt(Mirror&& m);

  [[nodiscard]] std::size_t size() const noexcept {
    sync::LockGuard lock(mu_);
    return mirrors_.size();
  }
  [[nodiscard]] bool empty() const noexcept {
    sync::LockGuard lock(mu_);
    return mirrors_.empty();
  }
  [[nodiscard]] Mirror& operator[](std::size_t i) noexcept {
    sync::LockGuard lock(mu_);
    return mirrors_[i];
  }
  [[nodiscard]] const Mirror& operator[](std::size_t i) const noexcept {
    sync::LockGuard lock(mu_);
    return mirrors_[i];
  }
  /// The mirror list itself.  Membership is guarded by mu_, but the
  /// returned reference escapes it: callers iterate mirrors while the set
  /// is stable (membership only changes in attach/recovery/decommission,
  /// never mid-transaction).
  [[nodiscard]] std::vector<Mirror>& mirrors() noexcept {
    sync::LockGuard lock(mu_);
    return mirrors_;
  }
  void clear() noexcept {
    sync::LockGuard lock(mu_);
    mirrors_.clear();
  }

  /// Reserves record `index`'s mirror segment (`size` bytes) on mirror `m`.
  /// `who` names the caller in the OutOfRemoteMemory message.
  void reserve_record(Mirror& m, std::uint32_t index, std::uint64_t size, const char* who);

  /// Pushes the metadata directory (header + per-record sizes, clean flag).
  void push_meta(Mirror& m, std::span<const LocalRecord> records, std::uint64_t undo_gen);

  /// Pushes record `index`'s current local bytes to its mirror segment.
  void push_record(Mirror& m, std::uint32_t index, std::span<const LocalRecord> records);

  /// Frees every segment of `m` (decommission path).
  void free_segments(Mirror& m);

  /// Stores the 16-byte propagation flag {txn_id, undo_bytes} — the
  /// announcement when txn_id != 0, THE commit point when clearing to zero.
  void store_flag(Mirror& m, std::uint64_t txn_id, std::uint64_t undo_bytes,
                  netram::StreamHint hint);

  /// figure 3, step 3 (coalesced): propagates each record's merged dirty
  /// union to `m`'s database image, gathered per record into shared SCI
  /// bursts; `after_slice` runs after every slice lands (crash points) and
  /// must not call back into the set (mu_ is held across the bursts).
  /// Returns the bytes moved; increments stats' propagate_writes.
  std::uint64_t propagate_ranges(
      Mirror& m, const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& write_set,
      std::span<const LocalRecord> records, const std::function<void()>& after_slice);

  /// figure 3, step 3 (legacy, coalesce_ranges=false): one store per undo
  /// entry, in declaration order.  Returns the bytes moved.
  std::uint64_t propagate_entries(Mirror& m, const std::vector<UndoImage>& undo,
                                  std::span<const LocalRecord> records,
                                  const std::function<void()>& after_copy);

  /// Rebuilds mirror `index` (whose server lost its exports in a crash and
  /// has been restarted) from the local records: drops any stale exports,
  /// re-creates all segments, pushes record contents and clean metadata.
  void rebuild(std::uint32_t index, std::span<const LocalRecord> records,
               std::uint64_t undo_capacity, std::uint64_t undo_gen);

 private:
  void create_segments(Mirror& m, std::uint64_t undo_capacity, std::uint64_t undo_gen);
  [[nodiscard]] std::span<std::byte> record_bytes(std::span<const LocalRecord> records,
                                                  std::uint32_t index) const;

  netram::Cluster* cluster_;
  netram::RemoteMemoryClient* client_;
  netram::NodeId local_;
  const PerseasConfig* config_;
  PerseasStats* stats_;
  /// Guards mirror-set *membership* (add/adopt/rebuild/clear) and the
  /// gather scratch.  The data pushes that take a Mirror& operate on one
  /// mirror's remote segments and are serialized by the caller's
  /// transaction locking, not by mu_.
  mutable sync::Mutex mu_;
  std::vector<Mirror> mirrors_ PERSEAS_GUARDED_BY(mu_);
  /// propagate_ranges' slices of one record, reused across records and
  /// commits.
  std::vector<netram::RemoteMemoryClient::GatherSlice> slices_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::core

#include "check/txn_validator.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/layout.hpp"
#include "obs/metrics.hpp"
#include "sim/crc32.hpp"

namespace perseas::check {

namespace {

/// Mirrors the CRC computed by the undo serializer: CRC-32C over the
/// payload fields and the before-image, excluding magic and the checksum
/// slot itself.  Recomputed here independently so the validator would catch
/// a serializer that signs the wrong bytes.  memcpy-packed like the
/// serializer's version: no references into unaligned storage.
std::uint32_t expected_checksum(const core::UndoEntryHeader& hdr,
                                std::span<const std::byte> image) {
  std::array<std::byte, sizeof hdr.record + sizeof hdr.txn_id + sizeof hdr.offset +
                            sizeof hdr.size>
      fields;
  std::byte* p = fields.data();
  std::memcpy(p, &hdr.record, sizeof hdr.record);
  p += sizeof hdr.record;
  std::memcpy(p, &hdr.txn_id, sizeof hdr.txn_id);
  p += sizeof hdr.txn_id;
  std::memcpy(p, &hdr.offset, sizeof hdr.offset);
  p += sizeof hdr.offset;
  std::memcpy(p, &hdr.size, sizeof hdr.size);
  const std::uint32_t crc = sim::crc32c(fields);
  return sim::crc32c(image, crc) ^ 0xffffffffu;
}

/// True when byte position `p` lies inside one of the sorted, coalesced
/// `ranges`; `ri` is a monotonic cursor the caller reuses across positions.
bool covered(const std::vector<core::ByteRange>& ranges, std::size_t& ri, std::uint64_t p) {
  while (ri < ranges.size() && ranges[ri].offset + ranges[ri].size <= p) ++ri;
  return ri < ranges.size() && ranges[ri].offset <= p;
}

}  // namespace

CoverageError::CoverageError(std::uint32_t record, std::uint64_t offset, std::uint64_t length)
    : ValidationError("uncovered write: record " + std::to_string(record) + ", offset " +
                      std::to_string(offset) + ", length " + std::to_string(length) +
                      " modified without a covering set_range (unrecoverable after a crash)"),
      record_(record),
      offset_(offset),
      length_(length) {}

TxnValidator::Session* TxnValidator::find(std::uint64_t txn_id) noexcept {
  for (auto& s : sessions_) {
    if (s.txn_id == txn_id) return &s;
  }
  return nullptr;
}

void TxnValidator::close(std::uint64_t txn_id) noexcept {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->txn_id == txn_id) {
      sessions_.erase(it);
      return;
    }
  }
}

void TxnValidator::disarm() noexcept { sessions_.clear(); }

void TxnValidator::on_begin(std::uint64_t txn_id, std::span<const TxnRecordView> records) {
  Session s;
  s.txn_id = txn_id;
  ++stats_.txns_observed;
  s.tracked.reserve(records.size());
  for (const auto& r : records) {
    TrackedRecord tr;
    tr.index = r.index;
    tr.snapshot.assign(r.bytes.begin(), r.bytes.end());
    ++stats_.snapshots_taken;
    stats_.snapshot_bytes += tr.snapshot.size();
    // The snapshot sees every open neighbour's writes so far, but a
    // neighbour may keep writing (or roll back) inside its declared ranges
    // after this instant — seed those ranges as foreign tolerance now.
    for (const auto& other : sessions_) {
      for (const auto& ot : other.tracked) {
        if (ot.index != r.index) continue;
        for (const auto& range : ot.ranges) {
          core::merge_range(tr.foreign_ranges, range.offset, range.size);
        }
      }
    }
    s.tracked.push_back(std::move(tr));
  }
  sessions_.push_back(std::move(s));
}

void TxnValidator::on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                                std::uint64_t size) {
  Session* s = find(txn_id);
  if (s == nullptr) return;
  for (auto& tr : s->tracked) {
    if (tr.index == record) {
      core::merge_range(tr.ranges, offset, size);
      ++stats_.ranges_tracked;
      break;
    }
  }
  // Every open neighbour's later diff must tolerate this transaction's
  // modifications (and a possible rollback) inside the declared range.
  for (auto& other : sessions_) {
    if (other.txn_id == txn_id) continue;
    for (auto& tr : other.tracked) {
      if (tr.index == record) {
        core::merge_range(tr.foreign_ranges, offset, size);
        break;
      }
    }
  }
}

void TxnValidator::on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                                std::span<const std::byte> remote) {
  ++stats_.undo_crosschecks;
  if (serialized.size() != remote.size() ||
      std::memcmp(serialized.data(), remote.data(), serialized.size()) != 0) {
    disarm();
    throw UndoMismatchError(
        "remote undo entry does not byte-match the local serialization (txn " +
        std::to_string(txn_id) + ")");
  }
  if (serialized.size() < sizeof(core::UndoEntryHeader)) {
    disarm();
    throw UndoMismatchError("undo entry shorter than its header (txn " +
                            std::to_string(txn_id) + ")");
  }
  core::UndoEntryHeader hdr;
  std::memcpy(&hdr, serialized.data(), sizeof hdr);
  const std::span<const std::byte> image = serialized.subspan(sizeof hdr, hdr.size);
  if (hdr.magic != core::UndoEntryHeader::kMagic || hdr.txn_id != txn_id ||
      serialized.size() != core::undo_entry_bytes(hdr.size) ||
      hdr.checksum != expected_checksum(hdr, image)) {
    disarm();
    throw UndoMismatchError("undo entry header/CRC is internally inconsistent (txn " +
                            std::to_string(txn_id) + ")");
  }
}

void TxnValidator::on_commit(std::uint64_t txn_id, std::span<const TxnRecordView> records) {
  Session* s = find(txn_id);
  if (s == nullptr) return;
  ++stats_.commits_checked;
  for (const auto& view : records) {
    const TrackedRecord* tr = nullptr;
    for (const auto& t : s->tracked) {
      if (t.index == view.index) {
        tr = &t;
        break;
      }
    }
    if (tr == nullptr || tr->snapshot.size() != view.bytes.size()) continue;

    // Scan for modified byte runs outside the tolerated union: the
    // transaction's own declares plus its open neighbours' (disjoint by
    // the conflict table, so the merge never hides an own-range bug).
    std::vector<core::ByteRange> tolerated = tr->ranges;
    for (const auto& range : tr->foreign_ranges) {
      core::merge_range(tolerated, range.offset, range.size);
    }
    const std::uint64_t n = tr->snapshot.size();
    std::size_t ri = 0;  // advances monotonically with the byte position
    std::uint64_t p = 0;
    while (p < n) {
      if (view.bytes[p] == tr->snapshot[p] || covered(tolerated, ri, p)) {
        ++p;
        continue;
      }
      // Modified and uncovered: report the whole contiguous run of
      // modified bytes up to the next tolerated range.
      const std::uint64_t next_range = ri < tolerated.size() ? tolerated[ri].offset : n;
      std::uint64_t end = p;
      while (end < n && end < next_range && view.bytes[end] != tr->snapshot[end]) ++end;
      ++stats_.uncovered_writes;
      const auto record = tr->index;
      disarm();
      throw CoverageError(record, p, end - p);
    }
  }
  // Coverage holds; now flag declared ranges whose bytes never changed —
  // their before-images were logged locally and pushed to every mirror for
  // nothing (paper figure 6: undo traffic is the dominant per-txn cost).
  for (const auto& tr : s->tracked) {
    const TxnRecordView* view = nullptr;
    for (const auto& v : records) {
      if (v.index == tr.index) {
        view = &v;
        break;
      }
    }
    if (view == nullptr || view->bytes.size() != tr.snapshot.size()) continue;
    for (const auto& r : tr.ranges) {
      bool touched = false;
      for (std::uint64_t p = r.offset; p < r.offset + r.size && !touched; ++p) {
        touched = view->bytes[p] != tr.snapshot[p];
      }
      if (!touched) {
        ++stats_.unused_ranges;
        warnings_.push_back("txn " + std::to_string(txn_id) + ": declared range [" +
                            std::to_string(r.offset) + ", " +
                            std::to_string(r.offset + r.size) + ") of record " +
                            std::to_string(tr.index) +
                            " was never modified (wasted undo bandwidth)");
      }
    }
  }
}

void TxnValidator::on_abort(std::uint64_t txn_id, std::span<const TxnRecordView> records) {
  Session* s = find(txn_id);
  if (s == nullptr) return;
  ++stats_.aborts_checked;
  for (const auto& view : records) {
    const TrackedRecord* tr = nullptr;
    for (const auto& t : s->tracked) {
      if (t.index == view.index) {
        tr = &t;
        break;
      }
    }
    if (tr == nullptr || tr->snapshot.size() != view.bytes.size()) continue;
    // The rollback must restore the transaction's own ranges to their
    // begin values exactly; only bytes an open neighbour declared may
    // legitimately differ from the snapshot.
    const std::uint64_t n = tr->snapshot.size();
    std::size_t ri = 0;
    for (std::uint64_t p = 0; p < n; ++p) {
      if (view.bytes[p] == tr->snapshot[p] || covered(tr->foreign_ranges, ri, p)) continue;
      const auto record = tr->index;
      disarm();
      throw SnapshotMismatchError(
          "abort left record " + std::to_string(record) + " differing from its "
          "begin snapshot at offset " + std::to_string(p) +
          " — an uncovered write survived the rollback (txn " + std::to_string(txn_id) + ")");
    }
  }
  close(txn_id);
}

void TxnValidator::export_metrics(obs::MetricsRegistry& reg, const std::string& labels) const {
  const auto count = [&](std::string_view name, std::string_view help, std::uint64_t v) {
    reg.counter(name, help, labels).add(v);
  };
  count("perseas_validator_txns_observed_total", "Transactions seen by the validator",
        stats_.txns_observed);
  count("perseas_validator_snapshots_total", "Records snapshotted at begin",
        stats_.snapshots_taken);
  count("perseas_validator_snapshot_bytes_total", "Bytes snapshotted by the validator",
        stats_.snapshot_bytes);
  count("perseas_validator_ranges_tracked_total", "set_range declarations observed",
        stats_.ranges_tracked);
  count("perseas_validator_commits_checked_total", "Commits diffed by check::TxnValidator",
        stats_.commits_checked);
  count("perseas_validator_aborts_checked_total", "Aborts verified byte-identical",
        stats_.aborts_checked);
  count("perseas_validator_undo_crosschecks_total", "Remote undo entries byte-compared",
        stats_.undo_crosschecks);
  count("perseas_validator_uncovered_writes_total", "CoverageErrors raised",
        stats_.uncovered_writes);
  count("perseas_validator_unused_ranges_total", "Declared-but-untouched range warnings",
        stats_.unused_ranges);
}

std::vector<core::ByteRange> TxnValidator::declared_ranges(std::uint32_t record) const {
  std::vector<core::ByteRange> out;
  for (const auto& s : sessions_) {
    for (const auto& tr : s.tracked) {
      if (tr.index == record) {
        for (const auto& r : tr.ranges) core::merge_range(out, r.offset, r.size);
      }
    }
  }
  return out;
}

}  // namespace perseas::check

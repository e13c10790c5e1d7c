// Unit tests for the four components of the concurrent-transaction core:
// TxnContext (per-transaction state), UndoLog (shared tagged log, scan
// semantics), ConflictTable (first-writer-wins claims) and the Perseas
// orchestration layer's compile-time pinning contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/conflict_table.hpp"
#include "core/perseas.hpp"
#include "core/txn_context.hpp"
#include "core/undo_log.hpp"

namespace perseas::core {
namespace {

// Regression for the dangling-owner bug: RecordHandle and Transaction hold
// raw Perseas* back pointers, so the instance must be pinned.  A future
// defaulted move constructor would silently reintroduce the bug; fail the
// build instead.
static_assert(!std::is_move_constructible_v<Perseas>);
static_assert(!std::is_move_assignable_v<Perseas>);
static_assert(!std::is_copy_constructible_v<Perseas>);
static_assert(!std::is_copy_assignable_v<Perseas>);

// --- TxnContext -------------------------------------------------------

TEST(TxnContextTest, DeclareReturnsOnlyUncoveredSubranges) {
  TxnContext ctx(7);
  EXPECT_EQ(ctx.id(), 7u);

  std::vector<ByteRange> fresh;
  ctx.declare(0, 100, 50, fresh);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], (ByteRange{100, 50}));

  // Fully covered re-declaration: nothing fresh.
  ctx.declare(0, 110, 20, fresh);
  EXPECT_TRUE(fresh.empty());

  // Straddling declaration: only the tail is fresh.
  ctx.declare(0, 140, 40, fresh);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], (ByteRange{150, 30}));

  // The raw counter counts declared bytes, covered or not.
  EXPECT_EQ(ctx.declared_bytes(), 50u + 20u + 40u);
}

TEST(TxnContextTest, WriteSetMergesPerRecordInFirstTouchOrder) {
  TxnContext ctx(1);
  std::vector<ByteRange> fresh;
  ctx.declare(2, 0, 10, fresh);
  ctx.declare(0, 50, 10, fresh);
  ctx.declare(2, 10, 10, fresh);  // adjacent: coalesces with [0,10)

  const auto& ws = ctx.write_set();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].first, 2u);
  ASSERT_EQ(ws[0].second.size(), 1u);
  EXPECT_EQ(ws[0].second[0], (ByteRange{0, 20}));
  EXPECT_EQ(ws[1].first, 0u);
  ASSERT_EQ(ws[1].second.size(), 1u);
  EXPECT_EQ(ws[1].second[0], (ByteRange{50, 10}));
}

// reset() hands the context to a new transaction with nothing of the old
// one visible, but keeps its buffers: the i-th image of the next
// transaction gets the i-th buffer back, and a buffer past the retention
// cap is released rather than kept.
TEST(TxnContextTest, ResetEmptiesStateAndReusesSmallBuffers) {
  TxnContext ctx(1);
  std::vector<ByteRange> fresh;
  ctx.declare(0, 0, 100, fresh);
  ctx.declare_read(1, 0, 8);
  for (const std::size_t size : {std::size_t{100}, kRetainedBufferBytes + 1, std::size_t{50}}) {
    UndoImage u = ctx.take_image();
    u.before.assign(size, std::byte{1});
    ctx.undo().push_back(std::move(u));
  }
  ctx.set_pushed_entries(3);
  const std::byte* first = ctx.undo()[0].before.data();

  ctx.reset(2);
  EXPECT_EQ(ctx.id(), 2u);
  EXPECT_TRUE(ctx.undo().empty());
  EXPECT_TRUE(ctx.write_set().empty());
  EXPECT_TRUE(ctx.read_set().empty());
  EXPECT_EQ(ctx.pushed_entries(), 0u);
  EXPECT_EQ(ctx.declared_bytes(), 0u);

  const UndoImage again = ctx.take_image();
  EXPECT_TRUE(again.before.empty());
  EXPECT_EQ(again.before.data(), first) << "the first image's buffer comes back first";
  EXPECT_GE(again.before.capacity(), 100u);
  EXPECT_GE(ctx.take_image().before.capacity(), 50u);
  EXPECT_EQ(ctx.take_image().before.capacity(), 0u) << "the oversized buffer was kept";
}

// --- ConflictTable ----------------------------------------------------

TEST(ConflictTableTest, FirstWriterWins) {
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, 100, 50), 0u);
  EXPECT_EQ(table.claims_of(1), 1u);
  // The loser learns who holds the range, and the table is unchanged.
  EXPECT_EQ(table.try_acquire(2, 0, 120, 10), 1u);
  EXPECT_EQ(table.claims_of(2), 0u);
}

TEST(ConflictTableTest, AdjacentAndOtherRecordRangesDoNotConflict) {
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, 100, 50), 0u);
  // Half-open [100,150): a claim starting at 150 touches but never overlaps.
  EXPECT_EQ(table.try_acquire(2, 0, 150, 50), 0u);
  EXPECT_EQ(table.try_acquire(2, 0, 50, 50), 0u);
  // Same offsets on a different record are unrelated.
  EXPECT_EQ(table.try_acquire(2, 1, 100, 50), 0u);
  EXPECT_EQ(table.claims_of(2), 3u);
}

TEST(ConflictTableTest, OwnOverlapIsAllowed) {
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, 100, 50), 0u);
  EXPECT_EQ(table.try_acquire(1, 0, 100, 50), 0u);
  EXPECT_EQ(table.try_acquire(1, 0, 125, 100), 0u);
}

// Regression: the overlap test used to compute `offset + size` in raw
// u64, so a claim ending exactly at 2^64 wrapped to end=0 and conflicted
// with nothing — writers at the top of the address space silently shared
// ranges.
TEST(ConflictTableTest, RangesAtTheTopOfTheAddressSpaceStillConflict) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, kTop - 7, 8), 0u);  // [2^64-8, 2^64): end unrepresentable
  // Overlapping tail claims by another txn must be rejected...
  EXPECT_EQ(table.try_acquire(2, 0, kTop - 3, 4), 1u);
  EXPECT_EQ(table.try_acquire(2, 0, kTop - 7, 8), 1u);
  EXPECT_EQ(table.try_acquire(2, 0, kTop, 1), 1u);
  EXPECT_EQ(table.claims_of(2), 0u);
  // ...while adjacent-below and far-away ranges still pass.
  EXPECT_EQ(table.try_acquire(2, 0, kTop - 15, 8), 0u);  // [2^64-16, 2^64-8)
  EXPECT_EQ(table.try_acquire(2, 0, 0, 16), 0u);
  EXPECT_EQ(table.claims_of(2), 2u);
  // The inverse order wraps the same way: probe low, holder at the top.
  ConflictTable inverse;
  EXPECT_EQ(inverse.try_acquire(1, 0, kTop, 1), 0u);
  EXPECT_EQ(inverse.try_acquire(2, 0, kTop - 1, 2), 1u);
}

// Regression: same-owner re-declarations used to push one Claim each, so a
// long transaction rewriting one field grew the table without bound.  They
// now coalesce (overlapping or adjacent ranges merge); disjoint claims stay
// separate.
TEST(ConflictTableTest, SameOwnerRedeclarationsCoalesce) {
  ConflictTable table;
  for (int i = 0; i < 1'000; ++i) ASSERT_EQ(table.try_acquire(1, 0, 100, 50), 0u);
  EXPECT_EQ(table.claims_of(1), 1u) << "identical re-declarations must not accumulate";

  EXPECT_EQ(table.try_acquire(1, 0, 125, 100), 0u);  // overlapping: widens to [100, 225)
  EXPECT_EQ(table.try_acquire(1, 0, 225, 25), 0u);   // adjacent: widens to [100, 250)
  EXPECT_EQ(table.claims_of(1), 1u);
  EXPECT_EQ(table.try_acquire(1, 0, 400, 10), 0u);  // disjoint: its own claim
  EXPECT_EQ(table.claims_of(1), 2u);
  // A bridge between the two absorbs both into one claim.
  EXPECT_EQ(table.try_acquire(1, 0, 250, 150), 0u);
  EXPECT_EQ(table.claims_of(1), 1u);

  // The merged claim still defends its full extent against other txns.
  EXPECT_EQ(table.try_acquire(2, 0, 409, 1), 1u);
  EXPECT_EQ(table.try_acquire(2, 0, 100, 1), 1u);
  EXPECT_EQ(table.try_acquire(2, 0, 410, 10), 0u);
}

TEST(ConflictTableTest, EmptyRangeClaimsNothing) {
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, 100, 0), 0u);
  EXPECT_EQ(table.claims_of(1), 0u);
  EXPECT_TRUE(table.empty());
  // And never conflicts, even inside a foreign claim.
  EXPECT_EQ(table.try_acquire(2, 0, 50, 100), 0u);
  EXPECT_EQ(table.try_acquire(1, 0, 75, 0), 0u);
  EXPECT_EQ(table.claims_of(1), 0u);
}

TEST(ConflictTableTest, ReleaseDropsAllClaimsOfOneTxn) {
  ConflictTable table;
  EXPECT_EQ(table.try_acquire(1, 0, 0, 10), 0u);
  EXPECT_EQ(table.try_acquire(1, 1, 0, 10), 0u);
  EXPECT_EQ(table.try_acquire(2, 0, 50, 10), 0u);
  EXPECT_FALSE(table.empty());

  table.release(1);
  EXPECT_EQ(table.claims_of(1), 0u);
  EXPECT_EQ(table.claims_of(2), 1u);
  // 1's ranges are free again; 2's survive.
  EXPECT_EQ(table.try_acquire(3, 0, 0, 10), 0u);
  EXPECT_EQ(table.try_acquire(3, 0, 50, 10), 2u);

  table.release(2);
  table.release(3);
  EXPECT_TRUE(table.empty());

  // A record whose claims all went is claimable again, and tracked again.
  EXPECT_EQ(table.try_acquire(4, 1, 5, 5), 0u);
  EXPECT_FALSE(table.empty());
  EXPECT_EQ(table.try_acquire(5, 1, 0, 10), 4u);
  table.release(4);
  EXPECT_TRUE(table.empty());
}

// --- UndoLog ----------------------------------------------------------

TEST(UndoLogTest, NextUndoCapacityDoublesUntilItFits) {
  EXPECT_EQ(next_undo_capacity(64, 64), 64u);
  EXPECT_EQ(next_undo_capacity(64, 65), 128u);
  EXPECT_EQ(next_undo_capacity(64, 1000), 1024u);
  EXPECT_EQ(next_undo_capacity(0, 1), 64u);  // floor
  EXPECT_THROW((void)next_undo_capacity(64, ~0ULL), OutOfRemoteMemory);
}

class UndoLogScanTest : public ::testing::Test {
 protected:
  UndoLogScanTest()
      : cluster_(sim::HardwareProfile::forth_1997(), 2),
        client_(cluster_, 0),
        log_(cluster_, client_, config_, stats_) {}

  /// Appends one serialized entry for `txn_id` to `bytes_`.
  void append(std::uint64_t txn_id, std::uint64_t offset, std::byte fill,
              std::uint64_t size = 8) {
    UndoImage u;
    u.record = 0;
    u.offset = offset;
    u.before.assign(size, fill);
    log_.serialize(u, txn_id, bytes_);
  }

  MetaHeader header(std::uint64_t propagating_txn) const {
    MetaHeader hdr;
    hdr.record_count = 1;
    hdr.propagating_txn = propagating_txn;
    hdr.propagating_undo_bytes = propagating_txn != 0 ? bytes_.size() : 0;
    return hdr;
  }

  /// Scans all of `bytes_` as the whole segment; that scan never asks for
  /// more bytes.
  UndoLog::ScanResult scan_all(const MetaHeader& hdr) const {
    auto result = UndoLog::scan(bytes_, bytes_.size(), hdr, sizes_);
    EXPECT_TRUE(result.has_value());
    return result.value_or(UndoLog::ScanResult{});
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryClient client_;
  PerseasConfig config_;
  PerseasStatShards stats_;
  UndoLog log_;
  std::vector<std::byte> bytes_;
  std::vector<std::uint64_t> sizes_{4096};  // record 0's size
};

TEST_F(UndoLogScanTest, ScanCollectsOnlyTheAnnouncedTxnsEntries) {
  append(3, 0, std::byte{0xAA});    // doomed
  append(4, 100, std::byte{0xBB});  // open neighbour, interleaved
  append(3, 200, std::byte{0xCC});  // doomed again

  const auto result = scan_all(header(3));
  EXPECT_EQ(result.max_txn, 4u);
  ASSERT_EQ(result.rollbacks.size(), 2u);
  EXPECT_EQ(result.rollbacks[0].txn_id, 3u);
  EXPECT_EQ(result.rollbacks[0].offset, 0u);
  EXPECT_EQ(result.rollbacks[1].txn_id, 3u);
  EXPECT_EQ(result.rollbacks[1].offset, 200u);
}

TEST_F(UndoLogScanTest, ScanWithNoCommitInFlightRollsBackNothing) {
  append(1, 0, std::byte{0x11});
  append(2, 64, std::byte{0x22});
  const auto result = scan_all(header(0));
  EXPECT_TRUE(result.rollbacks.empty());
  // Ids still surface so the recovered instance keeps them monotonic.
  EXPECT_EQ(result.max_txn, 2u);
}

TEST_F(UndoLogScanTest, CorruptEntryInsideAnnouncedPrefixThrows) {
  append(5, 0, std::byte{0x55});
  append(6, 64, std::byte{0x66});
  const auto hdr = header(5);
  // Flip one before-image byte of the *neighbour's* entry: inside the
  // announced prefix even a foreign entry must checksum cleanly.
  bytes_[bytes_.size() - 1] ^= std::byte{0xFF};
  EXPECT_THROW((void)scan_all(hdr), RecoveryError);
}

TEST_F(UndoLogScanTest, GarbageBeyondAnnouncedPrefixIsTheCleanEnd) {
  append(7, 0, std::byte{0x77});
  const auto hdr = header(7);  // announces only the first entry
  // Garbage past the announced tail: the scan must stop, not throw.
  bytes_.insert(bytes_.end(), 64, std::byte{0xFE});
  const auto result = scan_all(hdr);
  ASSERT_EQ(result.rollbacks.size(), 1u);
  EXPECT_EQ(result.rollbacks[0].txn_id, 7u);
}

// Recovery fetches the log in growing prefixes.  Every prefix either asks
// for more bytes or yields exactly the whole-segment result, and the scan
// completes as soon as the header slot after the last valid entry is in:
// it never needs a byte past the clean end.
TEST_F(UndoLogScanTest, EveryPrefixAsksForMoreOrMatchesTheWholeSegment) {
  append(3, 0, std::byte{0xAA}, 24);     // doomed
  append(4, 100, std::byte{0xBB}, 200);  // open neighbour
  append(3, 400, std::byte{0xCC});       // doomed again
  const auto hdr = header(3);
  append(2, 900, std::byte{0x22}, 64);  // stale entry of an earlier epoch
  const std::uint64_t clean_end = bytes_.size();
  bytes_.resize(clean_end + 256, std::byte{0});  // unused capacity
  const auto whole = scan_all(hdr);
  ASSERT_EQ(whole.bytes_scanned, clean_end);
  ASSERT_EQ(whole.rollbacks.size(), 2u);
  for (std::uint64_t n = 0; n <= bytes_.size(); ++n) {
    const auto part =
        UndoLog::scan(std::span<const std::byte>(bytes_).first(n), bytes_.size(), hdr, sizes_);
    ASSERT_EQ(part.has_value(), n >= clean_end + sizeof(UndoEntryHeader)) << n;
    if (part) {
      EXPECT_EQ(*part, whole) << n;
    }
  }
  // A segment that ends right after its last entry completes with it.
  const auto exact = std::span<const std::byte>(bytes_).first(clean_end);
  EXPECT_FALSE(UndoLog::scan(exact.first(clean_end - 1), clean_end, hdr, sizes_).has_value());
  EXPECT_EQ(UndoLog::scan(exact, clean_end, hdr, sizes_), whole);
}

// A corrupt entry inside the announced prefix is refused by every prefix
// that holds it; a shorter prefix asks for more rather than mistaking the
// cut for the clean end or for corruption.
TEST_F(UndoLogScanTest, CorruptAnnouncedEntryIsRefusedByEveryPrefixThatHoldsIt) {
  append(5, 0, std::byte{0x55});
  append(6, 64, std::byte{0x66}, 120);
  const auto hdr = header(5);
  bytes_.back() ^= std::byte{0xFF};
  const std::uint64_t announced = bytes_.size();
  bytes_.resize(announced + 128, std::byte{0});
  for (std::uint64_t n = 0; n <= bytes_.size(); ++n) {
    const auto prefix = std::span<const std::byte>(bytes_).first(n);
    if (n < announced) {
      EXPECT_FALSE(UndoLog::scan(prefix, bytes_.size(), hdr, sizes_).has_value()) << n;
    } else {
      EXPECT_THROW((void)UndoLog::scan(prefix, bytes_.size(), hdr, sizes_), RecoveryError) << n;
    }
  }
  // An announcement longer than the segment is refused before any fetch.
  MetaHeader lying = hdr;
  lying.propagating_undo_bytes = bytes_.size() + 8;
  EXPECT_THROW((void)UndoLog::scan({}, bytes_.size(), lying, sizes_), RecoveryError);
}

// The undo log is bytes read back from another machine.  An entry whose
// offset + size wraps around 2^64 (here to 8, inside the record) is forged
// geometry: recovery refuses it inside the announced prefix instead of
// handing it to the rollback, and beyond the prefix it ends the log.
TEST_F(UndoLogScanTest, EntryWhoseRangeWrapsAroundIsRefused) {
  append(3, 0, std::byte{0xAA});
  const std::size_t forged = bytes_.size();
  append(3, 0, std::byte{0xBB}, 16);
  UndoEntryHeader e;
  std::memcpy(&e, bytes_.data() + forged, sizeof e);
  e.offset = ~std::uint64_t{0} - 7;  // 2^64 - 8
  e.checksum =
      undo_entry_checksum(e, std::span<const std::byte>(bytes_).subspan(forged + sizeof e, e.size));
  std::memcpy(bytes_.data() + forged, &e, sizeof e);

  EXPECT_THROW((void)scan_all(header(3)), RecoveryError);

  MetaHeader hdr = header(3);
  hdr.propagating_undo_bytes = forged;  // announces only the first entry
  const auto result = scan_all(hdr);
  EXPECT_EQ(result.bytes_scanned, forged);
  ASSERT_EQ(result.rollbacks.size(), 1u);
  EXPECT_EQ(result.rollbacks[0].offset, 0u);
}

// CRC-32C detects every error burst of 32 bits or less, so flipping bits of
// any one checksummed byte (a header field or the image) changes the
// checksum, and recovery refuses the entry inside the announced prefix.
// Image sizes 1-17 give every tail length after the kernel's 8-byte steps.
TEST_F(UndoLogScanTest, ChecksumCoversHeaderFieldsAndImage) {
  constexpr std::size_t kFieldsBegin = offsetof(UndoEntryHeader, record);
  constexpr std::size_t kFieldsEnd = offsetof(UndoEntryHeader, checksum);  // one past size
  for (std::uint64_t size = 1; size <= 17; ++size) {
    bytes_.clear();
    append(9, 40, std::byte{0x42}, size);
    const auto entry = bytes_;
    const auto hdr = header(9);
    ASSERT_EQ(scan_all(hdr).rollbacks.size(), 1u) << "size " << size;
    UndoEntryHeader original;
    std::memcpy(&original, entry.data(), sizeof original);

    std::vector<std::size_t> covered;
    for (std::size_t i = kFieldsBegin; i < kFieldsEnd; ++i) covered.push_back(i);
    for (std::size_t i = 0; i < size; ++i) covered.push_back(sizeof(UndoEntryHeader) + i);
    for (const std::size_t i : covered) {
      for (const unsigned mask : {0x01u, 0x10u, 0x80u, 0xFFu}) {
        auto flipped = entry;
        flipped[i] ^= static_cast<std::byte>(mask);
        UndoEntryHeader e;
        std::memcpy(&e, flipped.data(), sizeof e);
        const std::span<const std::byte> image{flipped.data() + sizeof e, size};
        EXPECT_NE(undo_entry_checksum(e, image), original.checksum)
            << "size " << size << ", byte " << i << ", mask " << mask;
        EXPECT_THROW((void)UndoLog::scan(flipped, flipped.size(), hdr, sizes_), RecoveryError)
            << "size " << size << ", byte " << i << ", mask " << mask;
      }
    }
  }
}

TEST_F(UndoLogScanTest, SerializePadsEntriesToEightBytes) {
  append(1, 0, std::byte{0x01}, 5);  // 5-byte image pads to 8
  EXPECT_EQ(bytes_.size(), undo_entry_bytes(5));
  EXPECT_EQ(bytes_.size(), sizeof(UndoEntryHeader) + 8);
}

}  // namespace
}  // namespace perseas::core

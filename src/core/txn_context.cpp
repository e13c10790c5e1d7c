#include "core/txn_context.hpp"

namespace perseas::core {

void TxnContext::reset(std::uint64_t id) {
  id_ = id;
  records_ = {};
  clear_retaining(fresh_);
  clear_retaining(staged_);
  clear_retaining(entry_);
  pushed_entries_ = 0;
  declared_bytes_ = 0;
  // Newest first onto the pool, so take_image() pops them oldest first.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (retain(it->before.capacity())) spare_images_.push_back(std::move(*it));
  }
  clear_retaining(undo_);
  for (RecordRanges* set : {&write_set_, &read_set_}) {
    for (auto& [rec, ranges] : *set) {
      ranges.clear();
      if (retain(ranges.capacity() * sizeof(ByteRange))) {
        spare_ranges_.push_back(std::move(ranges));
      }
    }
    clear_retaining(*set);
  }
}

bool TxnContext::retain(std::size_t bytes) noexcept {
  if (bytes > kRetainedBufferBytes - spare_bytes_) return false;
  spare_bytes_ += bytes;
  return true;
}

UndoImage TxnContext::take_image() {
  if (spare_images_.empty()) return {};
  UndoImage u = std::move(spare_images_.back());
  spare_images_.pop_back();
  spare_bytes_ -= u.before.capacity();
  u.before.clear();
  return u;
}

std::vector<ByteRange>& TxnContext::ranges_of(RecordRanges& set, std::uint32_t record) {
  for (auto& [rec, rs] : set) {
    if (rec == record) return rs;
  }
  std::vector<ByteRange> rs;
  if (!spare_ranges_.empty()) {
    rs = std::move(spare_ranges_.back());
    spare_ranges_.pop_back();
    spare_bytes_ -= rs.capacity() * sizeof(ByteRange);
  }
  return set.emplace_back(record, std::move(rs)).second;
}

void TxnContext::declare(std::uint32_t record, std::uint64_t offset, std::uint64_t size,
                         std::vector<ByteRange>& fresh) {
  declared_bytes_ += size;
  merge_range(ranges_of(write_set_, record), offset, size, &fresh);
}

void TxnContext::declare_read(std::uint32_t record, std::uint64_t offset, std::uint64_t size) {
  merge_range(ranges_of(read_set_, record), offset, size);
}

}  // namespace perseas::core

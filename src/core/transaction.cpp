// The public handle types of the PERSEAS API: Transaction (move-only RAII
// over one open transaction, named by its id and carrying its context)
// and RecordHandle.  Thin
// forwarders into the Perseas transaction backends.
#include "core/perseas.hpp"

namespace perseas::core {

std::span<std::byte> RecordHandle::bytes() const {
  if (!valid()) throw UsageError("RecordHandle: default-constructed handle");
  return owner_->record_bytes(index_);
}

Transaction::Transaction(Transaction&& other) noexcept
    : owner_(other.owner_), ctx_(other.ctx_), id_(other.id_) {
  other.owner_ = nullptr;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    if (owner_ != nullptr) {
      try {
        owner_->txn_abort(*ctx_);
      } catch (...) {
        // A crashed node during cleanup leaves recovery to the caller.
      }
    }
    owner_ = other.owner_;
    ctx_ = other.ctx_;
    id_ = other.id_;
    other.owner_ = nullptr;
  }
  return *this;
}

Transaction::~Transaction() {
  if (owner_ != nullptr) {
    try {
      owner_->txn_abort(*ctx_);
    } catch (...) {
      // Destructors must not throw; a node crash here surfaces at the next
      // library call or through recovery.
    }
  }
}

void Transaction::set_range(const RecordHandle& record, std::uint64_t offset,
                            std::uint64_t size) {
  set_range(record.index(), offset, size);
}

void Transaction::set_range(std::uint32_t record, std::uint64_t offset, std::uint64_t size) {
  if (!active()) throw UsageError("Transaction::set_range: transaction not active");
  owner_->txn_set_range(*ctx_, record, offset, size);
}

void Transaction::read_range(const RecordHandle& record, std::uint64_t offset,
                             std::uint64_t size) {
  read_range(record.index(), offset, size);
}

void Transaction::read_range(std::uint32_t record, std::uint64_t offset, std::uint64_t size) {
  if (!active()) throw UsageError("Transaction::read_range: transaction not active");
  owner_->txn_read_range(*ctx_, record, offset, size);
}

void Transaction::commit() {
  if (!active()) throw UsageError("Transaction::commit: transaction not active");
  // On failure (e.g. a mirror crashed mid-propagation) the transaction
  // stays active so the caller can abort() locally — abort needs no remote
  // traffic — and then rebuild_mirror() to restore replication.
  owner_->txn_commit(*ctx_);
  owner_ = nullptr;
}

void Transaction::abort() {
  if (!active()) throw UsageError("Transaction::abort: transaction not active");
  Perseas* owner = owner_;
  owner_ = nullptr;
  owner->txn_abort(*ctx_);
}

}  // namespace perseas::core

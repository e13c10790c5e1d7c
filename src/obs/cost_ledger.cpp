#include "obs/cost_ledger.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/trace.hpp"

namespace perseas::obs {

namespace {

/// A shard compares names by address: they are string literals, so one
/// scope's key always has the same addresses.  Two copies of one literal
/// (say, in two translation units) make two rows of a shard; the merge on
/// read compares names by content and sums them.
struct SameLiterals {
  [[nodiscard]] bool operator()(const CostKey& a, const CostKey& b) const noexcept {
    const auto same = [](std::string_view x, std::string_view y) {
      return x.data() == y.data() && x.size() == y.size();
    };
    return a.txn == b.txn && same(a.phase, b.phase) && same(a.layer, b.layer) &&
           same(a.channel, b.channel);
  }
};

/// Rows in first-charge order, one per key (keys equal by `Same`).  A
/// flat open-addressing index on the txn id (at most half full) holds each
/// transaction's newest row, and a transaction's rows are chained, newest
/// first: a transaction has a handful of phases, so a lookup hashes one
/// integer and compares a few hot rows.  Rows live in chunks that double
/// in size and never move, so a scope may keep a pointer to its row.
template <typename Same>
class RowTable {
 public:
  /// The row of `key`, appended when the table has none.
  CostEntry& row(const CostKey& key) {
    Row*& newest = newest_of(key.txn);
    for (Row* r = newest; r != nullptr; r = r->older) {
      if (Same{}(r->entry.key, key)) return r->entry;
    }
    Row& fresh = append(key);
    fresh.older = newest;
    newest = &fresh;
    return fresh.entry;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t rows = 0;
    for (const std::vector<Row>& chunk : chunks_) rows += chunk.size();
    return rows;
  }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const std::vector<Row>& chunk : chunks_) {
      for (const Row& r : chunk) fn(r.entry);
    }
  }

 private:
  static constexpr std::size_t kFirstChunkRows = 32;

  struct Row {
    CostEntry entry;
    Row* older = nullptr;  ///< the same transaction's previous row
  };
  /// Free while `newest` is null.
  struct Slot {
    std::uint64_t txn = 0;
    Row* newest = nullptr;
  };

  Row*& newest_of(std::uint64_t txn) {
    if (2 * (txns_ + 1) > index_.size()) grow_index();
    Slot& slot = find(index_, txn);
    if (slot.newest == nullptr) {
      slot.txn = txn;
      ++txns_;
    }
    return slot.newest;
  }

  static Slot& find(std::vector<Slot>& index, std::uint64_t txn) noexcept {
    std::uint64_t h = txn * 0x9e3779b97f4a7c15ULL;  // ids are consecutive: spread them
    h ^= h >> 32;
    const std::size_t mask = index.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (index[i].newest != nullptr && index[i].txn != txn) i = (i + 1) & mask;
    return index[i];
  }

  void grow_index() {
    std::vector<Slot> index(std::max<std::size_t>(16, 2 * index_.size()));
    for (const Slot& slot : index_) {
      if (slot.newest != nullptr) find(index, slot.txn) = slot;
    }
    index_ = std::move(index);
  }

  Row& append(const CostKey& key) {
    if (chunks_.empty() || chunks_.back().size() == chunks_.back().capacity()) {
      const std::size_t rows = kFirstChunkRows << chunks_.size();
      chunks_.emplace_back().reserve(rows);
    }
    return chunks_.back().emplace_back(Row{CostEntry{key, 0, 0}});
  }

  std::vector<std::vector<Row>> chunks_;
  std::vector<Slot> index_;
  std::size_t txns_ = 0;
};

std::vector<std::pair<std::string_view, sim::SimDuration>> phases_of(
    const std::vector<CostEntry>& rows) {
  std::vector<std::pair<std::string_view, sim::SimDuration>> out;
  for (const CostEntry& e : rows) {
    const auto it = std::find_if(out.begin(), out.end(),
                                 [&e](const auto& p) { return p.first == e.key.phase; });
    if (it != out.end()) {
      it->second += e.ns;
    } else {
      out.emplace_back(e.key.phase, e.ns);
    }
  }
  return out;
}

}  // namespace

/// One thread's rows.  Only that thread writes them; reads come after it
/// has joined.
struct CostLedger::Shard {
  /// The row of charges made outside any scope.
  CostEntry& root() {
    if (root_row == nullptr) root_row = &rows.row(CostKey{});
    return *root_row;
  }

  RowTable<SameLiterals> rows;
  CostEntry* root_row = nullptr;
};

CostLedger::CostLedger() = default;

CostLedger::~CostLedger() = default;

CostEntry& CostLedger::current_row() {
  const ScopedCost* scope = ScopedCost::innermost_;
  while (scope != nullptr && scope->sinks_.ledger != this) scope = scope->parent_;
  if (scope == nullptr) return shards_.local().root();
  if (scope->row_ledger_ != shards_.serial()) {
    scope->row_ = &shards_.local().rows.row(scope->key_);
    scope->row_ledger_ = shards_.serial();
  }
  return *scope->row_;
}

void CostLedger::on_advance(sim::SimDuration d) noexcept { current_row().ns += d; }

void CostLedger::add_bytes(std::uint64_t n) noexcept { current_row().bytes += n; }

std::vector<CostEntry> CostLedger::merged() const {
  RowTable<std::equal_to<CostKey>> table;
  shards_.for_each([&table](const Shard& shard) {
    shard.rows.for_each([&table](const CostEntry& e) {
      CostEntry& row = table.row(e.key);
      row.ns += e.ns;
      row.bytes += e.bytes;
    });
  });
  std::vector<CostEntry> rows;
  rows.reserve(table.size());
  table.for_each([&rows](const CostEntry& e) { rows.push_back(e); });
  return rows;
}

std::vector<CostEntry> CostLedger::entries() const { return merged(); }

sim::SimDuration CostLedger::total_ns() const noexcept {
  sim::SimDuration total = 0;
  shards_.for_each([&total](const Shard& shard) {
    shard.rows.for_each([&total](const CostEntry& e) { total += e.ns; });
  });
  return total;
}

std::uint64_t CostLedger::total_bytes() const noexcept {
  std::uint64_t total = 0;
  shards_.for_each([&total](const Shard& shard) {
    shard.rows.for_each([&total](const CostEntry& e) { total += e.bytes; });
  });
  return total;
}

std::vector<std::pair<std::string_view, sim::SimDuration>> CostLedger::by_phase() const {
  return phases_of(entries());
}

Json CostLedger::to_json() const {
  const std::vector<CostEntry> entries = this->entries();
  Json rows = Json::array();
  sim::SimDuration total_ns = 0;
  std::uint64_t total_bytes = 0;
  for (const CostEntry& e : entries) {
    rows.push(Json::object()
                  .set("txn", e.key.txn)
                  .set("phase", e.key.phase)
                  .set("layer", e.key.layer)
                  .set("channel", e.key.channel)
                  .set("ns", static_cast<std::uint64_t>(e.ns))
                  .set("bytes", e.bytes));
    total_ns += e.ns;
    total_bytes += e.bytes;
  }
  Json phases = Json::array();
  for (const auto& [phase, ns] : phases_of(entries)) {
    phases.push(Json::object().set("phase", phase).set("ns", static_cast<std::uint64_t>(ns)));
  }
  return Json::object()
      .set("rows", std::move(rows))
      .set("by_phase", std::move(phases))
      .set("total_ns", static_cast<std::uint64_t>(total_ns))
      .set("total_bytes", total_bytes);
}

void ScopedCost::record_span() const noexcept {
  try {
    sinks_.trace->complete(sinks_.track, sim::current_worker_id(), key_.layer, key_.phase,
                           key_.txn, start_, sinks_.clock->now() - start_);
  } catch (...) {
    // Out of memory while recording: the span is lost, the run goes on.
  }
}

}  // namespace perseas::obs

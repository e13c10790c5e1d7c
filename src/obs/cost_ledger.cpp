#include "obs/cost_ledger.hpp"

#include <functional>
#include <utility>

#include "obs/trace.hpp"

namespace perseas::obs {

std::size_t CostLedger::KeyHash::operator()(const CostKey& key) const noexcept {
  std::size_t h = std::hash<std::uint64_t>{}(key.txn);
  for (const std::string_view name : {key.phase, key.layer, key.channel}) {
    h = h * 31 + std::hash<std::string_view>{}(name);
  }
  return h;
}

CostEntry& CostLedger::current_row() {
  static constexpr CostKey kRoot{};
  const ScopedCost* scope = ScopedCost::innermost_;
  while (scope != nullptr && scope->sinks_.ledger != this) scope = scope->parent_;
  const CostKey& key = scope != nullptr ? scope->key_ : kRoot;
  const auto [it, fresh] = index_.try_emplace(key, entries_.size());
  if (fresh) entries_.push_back(CostEntry{key, 0, 0});
  return entries_[it->second];
}

void CostLedger::on_advance(sim::SimDuration d) noexcept {
  sync::LockGuard lock(mu_);
  current_row().ns += d;
}

void CostLedger::add_bytes(std::uint64_t n) noexcept {
  sync::LockGuard lock(mu_);
  current_row().bytes += n;
}

std::vector<CostEntry> CostLedger::entries() const {
  sync::LockGuard lock(mu_);
  return entries_;
}

sim::SimDuration CostLedger::total_ns() const noexcept {
  sync::LockGuard lock(mu_);
  sim::SimDuration total = 0;
  for (const CostEntry& e : entries_) total += e.ns;
  return total;
}

std::uint64_t CostLedger::total_bytes() const noexcept {
  sync::LockGuard lock(mu_);
  std::uint64_t total = 0;
  for (const CostEntry& e : entries_) total += e.bytes;
  return total;
}

std::vector<std::pair<std::string_view, sim::SimDuration>> CostLedger::by_phase() const {
  sync::LockGuard lock(mu_);
  std::vector<std::pair<std::string_view, sim::SimDuration>> out;
  for (const CostEntry& e : entries_) {
    bool found = false;
    for (auto& [phase, ns] : out) {
      if (phase == e.key.phase) {
        ns += e.ns;
        found = true;
        break;
      }
    }
    if (!found) out.emplace_back(e.key.phase, e.ns);
  }
  return out;
}

Json CostLedger::to_json() const {
  Json rows = Json::array();
  sim::SimDuration total_ns = 0;
  std::uint64_t total_bytes = 0;
  {
    sync::LockGuard lock(mu_);
    for (const CostEntry& e : entries_) {
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
  }
  Json phases = Json::array();
  for (const auto& [phase, ns] : by_phase()) {
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

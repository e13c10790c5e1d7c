#include "obs/cost_ledger.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace perseas::obs {

CostEntry& CostLedger::entry_for_top() {
  static const CostKey kRoot{};
  ScopeStack& stack = stacks_[sim::current_worker_id()];
  const CostKey& key = stack.scopes.empty() ? kRoot : stack.scopes.back();
  if (stack.last_hit < entries_.size() && entries_[stack.last_hit].key == key) {
    return entries_[stack.last_hit];
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key) {
      stack.last_hit = i;
      return entries_[i];
    }
  }
  entries_.push_back(CostEntry{key, 0, 0});
  stack.last_hit = entries_.size() - 1;
  return entries_.back();
}

void CostLedger::on_advance(sim::SimDuration d) noexcept {
  sync::LockGuard lock(mu_);
  entry_for_top().ns += d;
}

void CostLedger::on_reset() noexcept {
  sync::LockGuard lock(mu_);
  entries_.clear();
  for (auto& [worker, stack] : stacks_) stack.last_hit = 0;
}

void CostLedger::add_bytes(std::uint64_t n) noexcept {
  sync::LockGuard lock(mu_);
  entry_for_top().bytes += n;
}

void CostLedger::push_scope(CostKey key) {
  sync::LockGuard lock(mu_);
  stacks_[sim::current_worker_id()].scopes.push_back(std::move(key));
}

void CostLedger::pop_scope() noexcept {
  sync::LockGuard lock(mu_);
  auto& scopes = stacks_[sim::current_worker_id()].scopes;
  if (!scopes.empty()) scopes.pop_back();
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

std::vector<std::pair<std::string, sim::SimDuration>> CostLedger::by_phase() const {
  sync::LockGuard lock(mu_);
  std::vector<std::pair<std::string, sim::SimDuration>> out;
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

void CostLedger::clear() noexcept {
  sync::LockGuard lock(mu_);
  entries_.clear();
  stacks_.clear();
}

void ScopedCost::open_span(const CostSinks& sinks, std::uint64_t txn, std::string_view phase,
                           std::string_view layer) noexcept {
  clock_ = sinks.clock;
  track_ = sinks.track;
  txn_ = txn;
  phase_ = phase;
  layer_ = layer;
  start_ = clock_->now();
}

void ScopedCost::close_span() noexcept {
  try {
    recorder_->complete(track_, sim::current_worker_id(), layer_, phase_, txn_, start_,
                        clock_->now() - start_);
  } catch (...) {
    // Out of memory while recording: the span is lost, the run goes on.
  }
}

}  // namespace perseas::obs

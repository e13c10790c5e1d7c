#include "sim/failure.hpp"

namespace perseas::sim {

std::string_view to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kPowerOutage: return "power-outage";
    case FailureKind::kHardwareFault: return "hardware-fault";
    case FailureKind::kSoftwareCrash: return "software-crash";
    case FailureKind::kHang: return "hang";
  }
  return "unknown";
}

NodeCrashed::NodeCrashed(std::uint32_t node_id, FailureKind kind, std::string point)
    : std::runtime_error("node " + std::to_string(node_id) + " crashed (" +
                         std::string(to_string(kind)) +
                         (point.empty() ? std::string() : " at " + point) + ")"),
      node_id_(node_id),
      kind_(kind),
      point_(std::move(point)) {}

void FailureInjector::arm(PointId point, std::uint64_t after_hits, Action action) {
  const std::uint64_t fire_at = hits(point) + after_hits + 1;
  sync::LockGuard lock(mu_);
  armed_.push_back(Armed{point, fire_at, std::move(action)});
  armed_size_.store(armed_.size(), std::memory_order_release);
}

void FailureInjector::reset() noexcept {
  sync::LockGuard lock(mu_);
  armed_.clear();
  armed_size_.store(0, std::memory_order_release);
  counts_.for_each([](ShardCounts& shard) {
    for (std::atomic<std::uint64_t>& c : shard) c.store(0, std::memory_order_relaxed);
  });
}

std::uint64_t FailureInjector::hits(PointId point) const noexcept {
  std::uint64_t total = 0;
  counts_.for_each([&total, point](const ShardCounts& shard) {
    total += shard[point.index()].load(std::memory_order_relaxed);
  });
  return total;
}

FailureInjector::HitCounts FailureInjector::snapshot() const noexcept {
  HitCounts total{};
  counts_.for_each([&total](const ShardCounts& shard) {
    for (std::size_t i = 0; i < total.size(); ++i) {
      total[i] += shard[i].load(std::memory_order_relaxed);
    }
  });
  return total;
}

void FailureInjector::notify(PointId point) {
  // Only this thread writes its shard, so the count is a plain load and
  // store, not a read-modify-write.
  std::atomic<std::uint64_t>& mine = counts_.local()[point.index()];
  const std::uint64_t own = mine.load(std::memory_order_relaxed) + 1;
  if (armed_size_.load(std::memory_order_acquire) == 0) {
    mine.store(own, std::memory_order_relaxed);
    if (observer_) observer_(point, own);
    return;
  }
  // Something is armed.  Collect due actions under the lock, fire them
  // outside it: an action may crash a node and throw, and must already be
  // off the armed list so that recovery code re-entering the same point
  // does not re-fire it — and it may itself call arm()/notify(), which
  // would self-deadlock under mu_.
  std::vector<Action> due;
  {
    sync::LockGuard lock(mu_);
    mine.store(own, std::memory_order_relaxed);
    const std::uint64_t total = hits(point);
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->point == point && total >= it->fire_at_hit) {
        due.push_back(std::move(it->action));
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
    armed_size_.store(armed_.size(), std::memory_order_release);
  }
  // The observer runs before the armed actions: a crash action throws
  // through this frame, and the firing must already be on record.
  if (observer_) observer_(point, own);
  for (auto& action : due) action();
}

}  // namespace perseas::sim

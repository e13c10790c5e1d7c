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
  sync::LockGuard lock(mu_);
  armed_.push_back(Armed{point, counts_[point.index()] + after_hits + 1, std::move(action)});
}

void FailureInjector::notify(PointId point) {
  // Collect due actions under the lock, fire them outside it: an action may
  // crash a node and throw, and must already be off the armed list so that
  // recovery code re-entering the same point does not re-fire it — and it
  // may itself call arm()/notify(), which would self-deadlock under mu_.
  std::vector<Action> due;
  std::uint64_t hits = 0;
  {
    sync::LockGuard lock(mu_);
    hits = ++counts_[point.index()];
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->point == point && hits >= it->fire_at_hit) {
        due.push_back(std::move(it->action));
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The observer runs before the armed actions: a crash action throws
  // through this frame, and the firing must already be on record.
  if (observer_) observer_(point, hits);
  for (auto& action : due) action();
}

}  // namespace perseas::sim

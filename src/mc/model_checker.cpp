#include "mc/model_checker.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "mc/reference_model.hpp"
#include "obs/flight_recorder.hpp"

namespace perseas::mc {

namespace {

using core::points::PointId;
using HitCounts = sim::FailureInjector::HitCounts;

/// Flight-recorder events embedded in a counterexample's timeline (the
/// last N before the invariant check fired).
constexpr std::size_t kTimelineEvents = 64;

/// Captures the failing exploration's blackbox narrative into `v` and puts
/// the violation itself on record (which also auto-dumps the blackbox when
/// PERSEAS_BLACKBOX is set — the CI artifact for a red mc run).
void attach_timeline(McViolation& v, McFixture& fixture) {
  obs::FlightRecorder& flight = fixture.cluster().flight();
  v.timeline = flight.narrative(kTimelineEvents);
  flight.note_anomaly("mc " + v.invariant + " violation: " + v.detail);
}

/// Scopes the PERSEAS_MC_SEED_BUG knob to one checker run (self-test mode),
/// restoring whatever the process had before.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value, bool active) : name_(name), active_(active) {
    if (!active_) return;
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (!active_) return;
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool active_;
  bool had_old_ = false;
  std::string old_;
};

/// Hits `after` gained over `before`, per point.
HitCounts window_delta(const HitCounts& before, const HitCounts& after) {
  HitCounts delta{};
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = after[i] - before[i];
  return delta;
}

/// Folds `window` into `acc` keeping the max hit count per point.
void merge_window(HitCounts& acc, const HitCounts& window) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::max(acc[i], window[i]);
}

/// Every registry row, in name order.
constexpr auto kPointsByName = [] {
  auto ids = PointId::all();
  std::sort(ids.begin(), ids.end(),
            [](PointId a, PointId b) { return std::string_view(a.name()) < b.name(); });
  return ids;
}();

std::string hex_byte(std::uint8_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  return std::string{'0', 'x', kDigits[v >> 4], kDigits[v & 0xf]};
}

std::string describe_mismatch(const McMismatch& mm) {
  return "offset " + std::to_string(mm.offset) + ": expected " + hex_byte(mm.expected) +
         ", got " + hex_byte(mm.actual);
}

}  // namespace

std::vector<PointHits> hit_rows(const HitCounts& hits) {
  std::vector<PointHits> rows;
  for (const PointId point : kPointsByName) {
    if (hits[point.index()] != 0) rows.push_back({point, hits[point.index()]});
  }
  return rows;
}

struct ModelChecker::Combo {
  std::optional<PointId> point;  // nullopt: the post-workload durability sweep
  std::uint64_t hit = 0;
  sim::FailureKind kind = sim::FailureKind::kSoftwareCrash;
};

struct ModelChecker::Outcome {
  bool fired = false;
  std::uint64_t crash_txn = 0;
  std::optional<McViolation> violation;
  HitCounts recovery_window{};
};

ModelChecker::ModelChecker(McOptions options) : options_(std::move(options)) {}

void ModelChecker::run_txn(workload::TxnEngine& engine, std::uint64_t txn_index) {
  const McTxn& txn = spec_.txns[txn_index];
  engine.begin();
  for (std::size_t j = 0; j < txn.ops.size(); ++j) {
    const McOp& op = txn.ops[j];
    engine.set_range(op.offset, op.size);
    fill_op(engine.db().subspan(op.offset, op.size), txn_index, j);
  }
  engine.commit();
}

void ModelChecker::run_txn_ops(workload::TxnEngine& engine, std::uint64_t txn_index,
                               std::uint32_t slot) {
  const McTxn& txn = spec_.txns[txn_index];
  engine.begin_slot(slot);
  for (std::size_t j = 0; j < txn.ops.size(); ++j) {
    const McOp& op = txn.ops[j];
    engine.set_range_slot(slot, op.offset, op.size);
    fill_op(engine.db().subspan(op.offset, op.size), txn_index, j);
  }
}

void ModelChecker::run_workload(workload::TxnEngine& engine, std::uint64_t txn_limit,
                                std::uint64_t& crash_txn) {
  if (!spec_.interleaved) {
    for (std::uint64_t t = 0; t < txn_limit; ++t) {
      crash_txn = t;
      run_txn(engine, t);
    }
    crash_txn = txn_limit;
    return;
  }
  // Interleaved schedule: transactions 2k and 2k+1 are open concurrently
  // (slots 0 and 1), commits in index order.  The atomicity boundary stays
  // t while ops of t AND of its still-uncommitted neighbour t+1 run —
  // neither has reached its commit point, so recovery must yield
  // states_[t] — and advances to t+1 only for txn t+1's own commit.
  for (std::uint64_t t = 0; t < txn_limit; t += 2) {
    crash_txn = t;
    run_txn_ops(engine, t, 0);
    const bool pair = t + 1 < txn_limit;
    if (pair) run_txn_ops(engine, t + 1, 1);
    engine.commit_slot(0);
    if (pair) {
      crash_txn = t + 1;
      engine.commit_slot(1);
    }
  }
  crash_txn = txn_limit;
}

void ModelChecker::discover(McResult& result) {
  McFixture fixture(options_.engine, options_.db_size, options_.seed);
  auto& injector = fixture.cluster().failures();
  const auto baseline = injector.snapshot();

  // Reference images are serial regardless of schedule: interleaved pairs
  // have disjoint write sets and commit in index order.
  ReferenceModel ref(options_.db_size);
  states_.clear();
  states_.push_back(ref.copy());  // states_[0]: all zeroes
  for (std::uint64_t t = 0; t < options_.txns; ++t) {
    ref.apply(spec_.txns[t], t);
    states_.push_back(ref.copy());
  }
  std::uint64_t ignored = 0;
  run_workload(fixture.engine(), options_.txns, ignored);

  result.points = window_delta(baseline, injector.snapshot());
  const auto db = fixture.engine().db();
  if (const auto mm = first_mismatch(states_.back(), db)) {
    McViolation v;
    v.invariant = "model";
    v.txn = options_.txns;
    v.detail = "crash-free run diverges from the reference model at " + describe_mismatch(*mm);
    attach_timeline(v, fixture);
    result.violations.push_back(std::move(v));
  }
}

ModelChecker::Outcome ModelChecker::explore(const Combo& combo, std::uint64_t txn_limit,
                                            std::optional<PointId> nested_point,
                                            std::uint64_t nested_hit,
                                            bool want_recovery_window) {
  Outcome out;
  McFixture fixture(options_.engine, options_.db_size, options_.seed);
  auto& injector = fixture.cluster().failures();
  const sim::FailureKind kind = combo.kind;

  if (combo.point) {
    // arm() counts relative to the current hit count, so construction-time
    // hits cancel out and `combo.hit` indexes the discovery window directly.
    const PointId point = *combo.point;
    injector.arm(point, combo.hit, [&fixture, kind, point] {
      fixture.crash(kind);
      throw sim::NodeCrashed(0, kind, point.name());
    });
  }

  std::uint64_t crash_txn = txn_limit;
  bool fired = false;
  try {
    run_workload(fixture.engine(), txn_limit, crash_txn);
  } catch (const sim::NodeCrashed&) {
    fired = true;
  }
  if (!combo.point) {
    fixture.crash(kind);
    fired = true;
    crash_txn = txn_limit;
  }
  if (!fired) {
    // Point/hit lies beyond this prefix of the workload.  Disarm before the
    // fixture is destroyed so the pending crash cannot fire mid-destructor.
    injector.clear();
    return out;
  }
  out.fired = true;
  out.crash_txn = crash_txn;

  const auto before_recover = injector.snapshot();
  if (nested_point) {
    const PointId np = *nested_point;
    injector.arm(np, nested_hit, [&fixture, kind, np] {
      fixture.crash(kind);
      throw sim::NodeCrashed(0, kind, np.name());
    });
  }
  try {
    try {
      fixture.recover();
    } catch (const sim::NodeCrashed&) {
      // Nested crash inside recovery: the second recovery attempt must
      // succeed and still satisfy every invariant below.
      fixture.recover();
    }
  } catch (const std::exception& e) {
    injector.clear();
    McViolation v;
    v.invariant = "recovery";
    v.txn = crash_txn;
    v.detail = std::string("recovery failed: ") + e.what();
    attach_timeline(v, fixture);
    out.violation = std::move(v);
    return out;
  }
  injector.clear();
  if (want_recovery_window) {
    out.recovery_window = window_delta(before_recover, injector.snapshot());
  }

  const auto db = fixture.engine().db();
  const bool committed =
      !combo.point || std::find(committed_points_.begin(), committed_points_.end(),
                                *combo.point) != committed_points_.end();
  if (!combo.point || crash_txn == txn_limit) {
    // Every transaction was acknowledged before the crash.
    if (const auto mm = first_mismatch(states_[txn_limit], db)) {
      McViolation v;
      v.invariant = "durability";
      v.txn = crash_txn;
      v.detail = "acknowledged transaction lost: recovered image diverges from the final "
                 "committed state at " +
                 describe_mismatch(*mm);
      out.violation = std::move(v);
    }
  } else {
    const auto& pre = states_[crash_txn];
    const auto& post = states_[crash_txn + 1];
    const auto post_mm = first_mismatch(post, db);
    if (committed) {
      if (post_mm) {
        McViolation v;
        v.invariant = "durability";
        v.txn = crash_txn;
        v.detail = "crash at/after the commit point rolled back transaction " +
                   std::to_string(crash_txn) + ": " + describe_mismatch(*post_mm);
        out.violation = std::move(v);
      }
    } else if (post_mm && first_mismatch(pre, db)) {
      McViolation v;
      v.invariant = "atomicity";
      v.txn = crash_txn;
      v.detail = "recovered image is neither the pre- nor the post-state of transaction " +
                 std::to_string(crash_txn) + "; vs post: " + describe_mismatch(*post_mm);
      out.violation = std::move(v);
    }
  }
  if (out.violation) {
    attach_timeline(*out.violation, fixture);
    return out;
  }

  try {
    fixture.check_hygiene();
  } catch (const std::exception& e) {
    McViolation v;
    v.invariant = "hygiene";
    v.txn = crash_txn;
    v.detail = e.what();
    attach_timeline(v, fixture);
    out.violation = std::move(v);
  }
  injector.clear();
  return out;
}

void ModelChecker::record_violation(McResult& result, const Combo& combo,
                                    std::optional<PointId> nested_point, std::uint64_t nested_hit,
                                    McViolation violation) {
  violation.point = combo.point ? std::string_view(combo.point->name()) : kPostWorkload;
  violation.hit = combo.hit;
  violation.kind = combo.kind;
  if (nested_point) {
    violation.nested = true;
    violation.nested_point = nested_point->name();
    violation.nested_hit = nested_hit;
  }
  if (options_.minimize && options_.txns > 1) {
    violation.minimized_txns = minimize(combo, nested_point, nested_hit, result);
  }
  result.violations.push_back(std::move(violation));
}

std::uint64_t ModelChecker::minimize(const Combo& combo, std::optional<PointId> nested_point,
                                     std::uint64_t nested_hit, McResult& result) {
  // The workload is deterministic, so any prefix of it is itself a valid
  // workload and states_ already holds its boundary images.
  for (std::uint64_t prefix = 1; prefix < options_.txns; ++prefix) {
    ++result.minimization_runs;
    if (explore(combo, prefix, nested_point, nested_hit, false).violation) return prefix;
  }
  return options_.txns;
}

McResult ModelChecker::run() {
  const EnvGuard env("PERSEAS_MC_SEED_BUG", "skip-flag-clear", options_.seed_bug);

  if (options_.txns == 0) throw std::invalid_argument("ModelChecker: txns must be >= 1");
  spec_ = make_workload(options_.workload, options_.txns, options_.db_size, options_.seed,
                        options_.script);

  McResult result;
  result.engine = options_.engine;
  result.workload = spec_.name;
  result.txns = options_.txns;
  result.seed = options_.seed;
  result.nested = options_.nested;

  // Engine capabilities (constant per engine; probed once).
  {
    McFixture probe(options_.engine, options_.db_size, options_.seed);
    const std::uint32_t slots = probe.engine().max_open_txns();
    if (spec_.interleaved && slots < 2) {
      throw std::invalid_argument("ModelChecker: workload '" + spec_.name +
                                  "' keeps two transactions open, but engine '" +
                                  options_.engine + "' supports only " +
                                  std::to_string(slots) + " slot(s)");
    }
    committed_points_ = probe.committed_points();
    std::vector<sim::FailureKind> supported = probe.supported_kinds();
    if (options_.kinds.empty()) {
      kinds_ = supported;
    } else {
      kinds_.clear();
      for (const sim::FailureKind k : options_.kinds) {
        if (std::find(supported.begin(), supported.end(), k) != supported.end()) {
          kinds_.push_back(k);
        }
      }
      if (kinds_.empty()) {
        throw std::invalid_argument("ModelChecker: none of the requested failure kinds is "
                                    "recoverable on engine '" + options_.engine + "'");
      }
    }
  }

  discover(result);
  if (!result.violations.empty()) return result;  // engine broken with no failures: stop
  if (options_.discover_only) return result;

  // Base state space: every (point, hit, kind) the clean run executes, plus
  // one post-workload durability sweep per kind.
  const bool filtered = !options_.only_point.empty() || options_.only_hit.has_value();
  std::vector<Combo> base;
  std::uint64_t filter_matches = 0;
  for (const sim::FailureKind kind : kinds_) {
    for (const PointHits& row : hit_rows(result.points)) {
      if (!options_.only_point.empty() && options_.only_point != row.point.name()) continue;
      for (std::uint64_t hit = 0; hit < row.hits; ++hit) {
        if (options_.only_hit && *options_.only_hit != hit) continue;
        base.push_back({row.point, hit, kind});
        ++filter_matches;
      }
    }
    if (options_.only_point.empty() || options_.only_point == kPostWorkload) {
      base.push_back({std::nullopt, 0, kind});
    }
  }
  if (filtered && filter_matches == 0 && options_.only_point != kPostWorkload) {
    // A reproduction filter that matches nothing would explore nothing and
    // report green: say so instead.
    throw std::invalid_argument(
        "ModelChecker: the reproduction filter (point '" + options_.only_point + "'" +
        (options_.only_hit ? ", hit " + std::to_string(*options_.only_hit) : std::string()) +
        ") selects none of the schedules discovered on engine '" + options_.engine + "'");
  }

  struct NestedJob {
    Combo combo;
    PointId point;
    std::uint64_t hit = 0;
  };
  std::vector<NestedJob> nested_jobs;
  const bool want_windows = options_.nested > 0;

  for (const Combo& combo : base) {
    ++result.explorations;
    Outcome out = explore(combo, options_.txns, std::nullopt, 0, want_windows);
    if (!out.fired) {
      ++result.not_reached;
      continue;
    }
    ++result.crashed;
    if (out.violation) {
      record_violation(result, combo, std::nullopt, 0, std::move(*out.violation));
      continue;
    }
    if (want_windows) {
      merge_window(result.recovery_points, out.recovery_window);
      for (const PointHits& row : hit_rows(out.recovery_window)) {
        for (std::uint64_t hit = 0; hit < row.hits; ++hit) {
          nested_jobs.push_back({combo, row.point, hit});
        }
      }
    }
  }

  for (const NestedJob& job : nested_jobs) {
    ++result.explorations;
    ++result.nested_explorations;
    Outcome out = explore(job.combo, options_.txns, job.point, job.hit, false);
    if (!out.fired) {
      ++result.not_reached;
      continue;
    }
    ++result.crashed;
    if (out.violation) {
      record_violation(result, job.combo, job.point, job.hit, std::move(*out.violation));
    }
  }

  return result;
}

std::optional<sim::FailureKind> failure_kind_from_name(std::string_view name) {
  if (name == "software-crash" || name == "software") return sim::FailureKind::kSoftwareCrash;
  if (name == "power-outage" || name == "power") return sim::FailureKind::kPowerOutage;
  if (name == "hardware-fault" || name == "hardware") return sim::FailureKind::kHardwareFault;
  return std::nullopt;
}

}  // namespace perseas::mc

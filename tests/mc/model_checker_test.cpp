// Tests for the crash-consistency model checker itself (perseas::mc).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/failure_points.hpp"
#include "mc/fixture.hpp"
#include "mc/model_checker.hpp"
#include "mc/reference_model.hpp"
#include "mc/report.hpp"
#include "mc/workload.hpp"

namespace perseas::mc {
namespace {

using core::points::PointId;

bool has_point(const sim::FailureInjector::HitCounts& points, PointId point) {
  return points[point.index()] != 0;
}

TEST(McWorkload, DebitCreditIsDeterministic) {
  const auto a = make_workload("debit-credit", 6, 1024, 7);
  const auto b = make_workload("debit-credit", 6, 1024, 7);
  ASSERT_EQ(a.txns.size(), 6u);
  for (std::size_t t = 0; t < a.txns.size(); ++t) {
    ASSERT_EQ(a.txns[t].ops.size(), b.txns[t].ops.size());
    for (std::size_t j = 0; j < a.txns[t].ops.size(); ++j) {
      EXPECT_EQ(a.txns[t].ops[j].offset, b.txns[t].ops[j].offset);
      EXPECT_EQ(a.txns[t].ops[j].size, b.txns[t].ops[j].size);
    }
  }
}

TEST(McWorkload, ScriptedParsesAndValidates) {
  const auto spec = make_workload("scripted", 1, 256, 0, "0:8 16:4  # txn 0\n\n32:1\n");
  ASSERT_EQ(spec.txns.size(), 2u);
  EXPECT_EQ(spec.txns[0].ops.size(), 2u);
  EXPECT_EQ(spec.txns[1].ops[0].offset, 32u);
  EXPECT_THROW(make_workload("scripted", 1, 256, 0, "250:16\n"), std::invalid_argument);
  EXPECT_THROW(make_workload("scripted", 1, 256, 0, "# only comments\n"),
               std::invalid_argument);
  EXPECT_THROW(make_workload("no-such-workload", 1, 256, 0), std::invalid_argument);
}

TEST(McReferenceModel, FirstMismatchFindsDivergence) {
  std::vector<std::byte> a(16, std::byte{0});
  std::vector<std::byte> b(16, std::byte{0});
  EXPECT_FALSE(first_mismatch(a, b).has_value());
  b[9] = std::byte{0x5a};
  const auto mm = first_mismatch(a, b);
  ASSERT_TRUE(mm.has_value());
  EXPECT_EQ(mm->offset, 9u);
  EXPECT_EQ(mm->actual, 0x5a);
}

// Discovery must pick up the commit and recovery instrumentation without any
// hard-coded point list.
TEST(McDiscovery, FindsCommitPointsOnPerseas) {
  McOptions options;
  options.engine = "perseas";
  options.txns = 3;
  options.discover_only = true;
  const McResult result = ModelChecker(options).run();
  ASSERT_TRUE(result.ok()) << result.violations.front().detail;
  EXPECT_TRUE(has_point(result.points, "perseas.commit.after_flag_set"));
  EXPECT_TRUE(has_point(result.points, "perseas.commit.before_flag_clear"));
  EXPECT_TRUE(has_point(result.points, "perseas.commit.after_flag_clear"));
  EXPECT_TRUE(has_point(result.points, "perseas.commit.done"));
}

// The two PERSEAS sweeps CI runs through tools/perseas-mc, each explored
// once per binary and shared by the tests below.
//
// The canonical one crashes PERSEAS at every discovered (point, hit, kind)
// — including once inside every recovery point reached (nested):
// debit-credit, --txns=2 --nested=1, every failure kind.
const McResult& perseas_nested_sweep() {
  static const McResult result = [] {
    McOptions options;
    options.engine = "perseas";
    options.workload = "debit-credit";
    options.txns = 2;
    options.nested = 1;
    return ModelChecker(options).run();
  }();
  return result;
}

// The interleaved workload keeps transaction pairs open concurrently on
// two engine slots (CI also sweeps the other failure kinds; the points
// reached are the same).
const McResult& perseas_interleaved_sweep() {
  static const McResult result = [] {
    McOptions options;
    options.engine = "perseas";
    options.workload = "interleaved";
    options.txns = 4;
    options.kinds = {sim::FailureKind::kSoftwareCrash};
    return ModelChecker(options).run();
  }();
  return result;
}

std::string first_violation(const McResult& result) {
  return result.violations.empty()
             ? std::string("?")
             : result.violations.front().invariant + ": " + result.violations.front().detail;
}

// The tentpole guarantee: the canonical nested sweep finds no violation.
TEST(McExplore, PerseasExhaustiveNestedIsClean) {
  const McResult& result = perseas_nested_sweep();
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.crashed, 0u);
  EXPECT_GT(result.nested_explorations, 0u);
}

// A crash during either open transaction of the interleaved workload (or
// either commit) must still recover to a whole-transaction boundary, with
// the neighbour's interleaved undo entries discarded.
TEST(McExplore, PerseasInterleavedExhaustiveIsClean) {
  const McResult& result = perseas_interleaved_sweep();
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.crashed, 0u);
}

// Like check-mc-report.py --registry over the two sweeps' reports: between
// them they fire every registry row of the perseas and netram domains
// marked mc-reachable, and no row marked otherwise (the interleaved
// sweep's 256-byte undo log is what reaches perseas.undo.after_growth).
TEST(McExplore, PerseasSweepsCoverExactlyTheMcRows) {
  const auto fired = [](PointId point) {
    for (const McResult* r : {&perseas_nested_sweep(), &perseas_interleaved_sweep()}) {
      if (has_point(r->points, point) || has_point(r->recovery_points, point)) return true;
    }
    return false;
  };
  const auto domains = registry_domains("perseas");
  for (const PointId point : PointId::all()) {
    const core::points::FailurePoint& row = point.row();
    if (std::find(domains.begin(), domains.end(), row.engine) == domains.end()) continue;
    EXPECT_EQ(fired(point), row.mc)
        << "registry row " << row.name << " is marked mc=" << row.mc << " but the sweeps "
        << (fired(point) ? "fire" : "never fire") << " it";
  }
}

// The same interleaved crash sweep must stay clean under every
// concurrency-control policy: the CC decision layer gates which
// transactions proceed, but crash atomicity is owned by the propagation
// protocol underneath, which the policies do not touch.  The fixture
// builds its PerseasConfig from defaults, so PERSEAS_CC reaches it.
TEST(McExplore, PerseasInterleavedIsCleanUnderEveryCcPolicy) {
  for (const char* policy : {"wait-die", "validate"}) {  // fww is the default above
    ASSERT_EQ(setenv("PERSEAS_CC", policy, 1), 0);
    McOptions options;
    options.engine = "perseas";
    options.workload = "interleaved";
    options.txns = 4;
    options.kinds = {sim::FailureKind::kSoftwareCrash};
    const McResult result = ModelChecker(options).run();
    unsetenv("PERSEAS_CC");
    EXPECT_TRUE(result.ok()) << policy << ": " << first_violation(result);
    EXPECT_GT(result.crashed, 0u) << policy;
  }
}

// Single-slot comparison engines cannot run the interleaved schedule; the
// capability probe must reject them up front, not mid-exploration.
TEST(McExplore, InterleavedRejectsSingleSlotEngines) {
  McOptions options;
  options.engine = "vista";
  options.workload = "interleaved";
  options.txns = 2;
  EXPECT_THROW((void)ModelChecker(options).run(), std::invalid_argument);
}

// Every comparison engine must also survive its exhaustive nested sweep
// (the same one CI runs with --registry).
TEST(McExplore, ComparisonEnginesExhaustiveAreClean) {
  for (const std::string engine : {"rvm-disk", "rvm-rio", "rvm-nvram", "vista"}) {
    McOptions options;
    options.engine = engine;
    options.workload = "synthetic";
    options.txns = 2;
    options.nested = 1;
    const McResult result = ModelChecker(options).run();
    EXPECT_TRUE(result.ok()) << engine << ": " << first_violation(result);
    EXPECT_GT(result.crashed, 0u) << engine;
    EXPECT_GT(result.nested_explorations, 0u) << engine;
  }
}

// Self-test: seeding the deliberate skip-flag-clear bug must produce a
// minimized counterexample (this is what proves the checker can actually
// see violations, not just report green).
TEST(McSelfTest, SeededBugYieldsMinimizedCounterexample) {
  McOptions options;
  options.engine = "perseas";
  options.workload = "debit-credit";
  options.txns = 3;
  options.kinds = {sim::FailureKind::kSoftwareCrash};
  options.seed_bug = true;
  const McResult result = ModelChecker(options).run();
  ASSERT_FALSE(result.ok());
  bool minimized = false;
  for (const auto& v : result.violations) {
    EXPECT_FALSE(v.invariant.empty());
    minimized |= v.minimized_txns != 0 && v.minimized_txns < options.txns;
  }
  EXPECT_TRUE(minimized) << "expected at least one counterexample smaller than the workload";
}

// Every counterexample must embed the flight-recorder narrative: the
// seeded skip-flag-clear bug's violations carry a timeline whose lines are
// the recorder's rendering ("@<ts>ns ..."), ending at the events that
// doomed the run — the announcement (flag.set) is on it, and the report
// JSON carries the same lines.
TEST(McSelfTest, SeededBugCounterexamplesEmbedFlightTimeline) {
  McOptions options;
  options.engine = "perseas";
  options.workload = "debit-credit";
  options.txns = 2;
  options.kinds = {sim::FailureKind::kSoftwareCrash};
  options.seed_bug = true;
  const McResult result = ModelChecker(options).run();
  ASSERT_FALSE(result.ok());
  bool saw_flag_set = false;
  for (const auto& v : result.violations) {
    ASSERT_FALSE(v.timeline.empty()) << v.invariant << ": " << v.detail;
    for (const auto& line : v.timeline) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line[0], '@') << line;
      saw_flag_set |= line.find(" flag.set ") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_flag_set)
      << "the announcement must appear in at least one embedded timeline";
  const std::string text = mc_report_json(result).dump();
  EXPECT_NE(text.find("\"timeline\":[\"@"), std::string::npos);
}

// Reproduction filters restrict exploration to one schedule from a report.
TEST(McExplore, PointFilterReproducesOneSchedule) {
  McOptions options;
  options.engine = "perseas";
  options.txns = 2;
  options.only_point = "perseas.commit.after_flag_set";
  options.only_hit = 0;
  options.kinds = {sim::FailureKind::kSoftwareCrash};
  const McResult result = ModelChecker(options).run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.explorations, 1u);
  EXPECT_EQ(result.crashed, 1u);
}

// A filter that selects no discovered schedule is an error, not a green
// run that explored nothing: a registered point the workload never reaches
// (debit-credit never aborts), and a hit past the discovered count.
TEST(McExplore, PointFilterMatchingNothingThrows) {
  McOptions options;
  options.engine = "perseas";
  options.txns = 2;
  options.kinds = {sim::FailureKind::kSoftwareCrash};
  options.only_point = "perseas.abort.done";
  EXPECT_THROW((void)ModelChecker(options).run(), std::invalid_argument);

  options.only_point = "perseas.commit.after_flag_set";
  options.only_hit = 99;
  EXPECT_THROW((void)ModelChecker(options).run(), std::invalid_argument);

  // The post-workload sweep is always there to select.
  options.only_point = std::string(kPostWorkload);
  options.only_hit.reset();
  const McResult result = ModelChecker(options).run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.explorations, 1u);
}

// Reports list points in name order, whatever the registry order.
TEST(McReport, HitRowsAreInNameOrder) {
  sim::FailureInjector::HitCounts hits{};
  hits[PointId("vista.commit.done").index()] = 2;
  hits[PointId("perseas.set_range.after_local_undo").index()] = 1;
  hits[PointId("perseas.commit.done").index()] = 3;
  const auto rows = hit_rows(hits);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_STREQ(rows[0].point.name(), "perseas.commit.done");
  EXPECT_EQ(rows[0].hits, 3u);
  EXPECT_STREQ(rows[1].point.name(), "perseas.set_range.after_local_undo");
  EXPECT_STREQ(rows[2].point.name(), "vista.commit.done");
}

TEST(McReport, SchemaShape) {
  McOptions options;
  options.engine = "perseas";
  options.txns = 2;
  options.only_point = "perseas.commit.done";
  options.kinds = {sim::FailureKind::kPowerOutage};
  const McResult result = ModelChecker(options).run();
  const std::string text = mc_report_json(result).dump();
  EXPECT_NE(text.find("\"schema\":\"perseas-mc/1\""), std::string::npos);
  EXPECT_NE(text.find("\"exploration\":"), std::string::npos);
  EXPECT_NE(text.find("\"violations\":"), std::string::npos);
  EXPECT_NE(text.find("\"ok\":true"), std::string::npos);
  // The report declares which registry engines its sweep owns, so the
  // python checkers need no parallel copy of the domain table.
  EXPECT_NE(text.find("\"registry_engines\":[\"perseas\",\"netram\"]"),
            std::string::npos);
}

TEST(McReport, RegistryDomainsCoverEveryKnownEngine) {
  using Domains = std::vector<std::string>;
  EXPECT_EQ(registry_domains("perseas"), (Domains{"perseas", "netram"}));
  EXPECT_EQ(registry_domains("vista"), (Domains{"vista"}));
  for (const char* rvm : {"rvm-disk", "rvm-disk-group", "rvm-rio", "rvm-nvram"}) {
    EXPECT_EQ(registry_domains(rvm), (Domains{"rvm"})) << rvm;
  }
  EXPECT_TRUE(registry_domains("no-such-engine").empty());
}

TEST(McFixtureTest, KnownEnginesAndWorkloadsAreExposed) {
  EXPECT_EQ(known_engines().size(), 5u);
  EXPECT_EQ(known_workloads().size(), 4u);
  EXPECT_THROW(McFixture("no-such-engine", 1024, 0), std::invalid_argument);
}

}  // namespace
}  // namespace perseas::mc

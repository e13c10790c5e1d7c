#include "mc/report.hpp"

#include "obs/output.hpp"

namespace perseas::mc {

namespace {

obs::Json points_json(const sim::FailureInjector::HitCounts& hits) {
  obs::Json arr = obs::Json::array();
  for (const PointHits& row : hit_rows(hits)) {
    arr.push(obs::Json::object().set("point", row.point.name()).set("hits", row.hits));
  }
  return arr;
}

}  // namespace

std::vector<std::string> registry_domains(std::string_view mc_engine) {
  if (mc_engine == "perseas") return {"perseas", "netram"};
  if (mc_engine == "vista") return {"vista"};
  if (mc_engine.rfind("rvm", 0) == 0) return {"rvm"};  // rvm-disk[-group]/-rio/-nvram
  return {};
}

obs::Json mc_report_json(const McResult& result) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", kMcReportSchema)
      .set("engine", result.engine)
      .set("workload", result.workload)
      .set("nested", static_cast<std::uint64_t>(result.nested))
      .set("seed", result.seed)
      .set("txns", result.txns)
      .set("points", points_json(result.points))
      .set("recovery_points", points_json(result.recovery_points));
  // Omitted (not emitted empty) for engines without a registry domain, so
  // the field's schema contract stays "non-empty array when present".
  const std::vector<std::string> owned = registry_domains(result.engine);
  if (!owned.empty()) {
    obs::Json domains = obs::Json::array();
    for (const std::string& engine : owned) domains.push(engine);
    doc.set("registry_engines", std::move(domains));
  }

  doc.set("exploration", obs::Json::object()
                             .set("total", result.explorations)
                             .set("crashed", result.crashed)
                             .set("not_reached", result.not_reached)
                             .set("nested", result.nested_explorations)
                             .set("minimization_runs", result.minimization_runs));

  obs::Json violations = obs::Json::array();
  for (const McViolation& v : result.violations) {
    obs::Json row = obs::Json::object();
    row.set("invariant", v.invariant)
        .set("point", v.point)
        .set("hit", v.hit)
        .set("kind", sim::to_string(v.kind))
        .set("nested", v.nested);
    if (v.nested) {
      row.set("nested_point", v.nested_point).set("nested_hit", v.nested_hit);
    }
    row.set("txn", v.txn).set("detail", v.detail).set("minimized_txns", v.minimized_txns);
    obs::Json timeline = obs::Json::array();
    for (const std::string& line : v.timeline) timeline.push(line);
    row.set("timeline", std::move(timeline));
    violations.push(std::move(row));
  }
  doc.set("violations", std::move(violations));
  doc.set("ok", result.ok());
  return doc;
}

void save_mc_report(const McResult& result, const std::string& path) {
  obs::write_file("save_mc_report", path, mc_report_json(result).dump(2) + "\n");
}

}  // namespace perseas::mc

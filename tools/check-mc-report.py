#!/usr/bin/env python3
"""Validate a perseas-mc/1 model-checker report (tools/perseas-mc --report).

Usage:
    check-mc-report.py [--registry] <report.json> [<report.json> ...]
    check-mc-report.py --expect-violations <report.json>

Checks the stable schema perseas::mc::mc_report_json emits and fails (exit
1) when a report records any violation.  With --expect-violations the
polarity flips: the report must contain at least one *minimized* violation —
this is how CI validates the --selftest artifact, proving the checker can
actually see bugs rather than just printing green.

With --registry the reports, all of one engine, are additionally
cross-checked against the central failure-point registry
(src/core/failure_points.hpp) over the union of their fired windows
(points plus recovery_points): every fired point must be registered, every
registry row the engine owns that is marked mc-reachable must have fired,
and no row it owns that is marked mc=false may have fired — such a row is
stale and must be flipped.  Pass exactly the full sweeps CI runs for the
engine — a narrowed one (--point/--hit/--kind filters) legitimately misses
points, and one without --nested=1 reports no recovery window.

Exits 0 on success, 1 with a diagnostic otherwise, 2 on usage errors.
Stdlib only: runs on any CI python3 without installs.
"""

import json
import re
import sys
from pathlib import Path

import ci_json

SCHEMA = "perseas-mc/1"
INVARIANTS = {"atomicity", "durability", "recovery", "hygiene", "model"}
KINDS = {"software-crash", "power-outage", "hardware-fault"}

# Which registry engines a perseas-mc engine's sweep is responsible for:
# the netram point fires on the PERSEAS commit path, so the perseas sweep
# owns it; every rvm-* store variant drives the same WAL code.  Reports
# since perseas-mc grew the "registry_engines" field carry this domain
# themselves (mc::registry_domains); the table below is the fallback for
# older snapshots and must stay in sync with src/mc/report.cpp.
ENGINE_DOMAINS = {
    "perseas": {"perseas", "netram"},
    "vista": {"vista"},
    "rvm-disk": {"rvm"},
    "rvm-disk-group": {"rvm"},
    "rvm-rio": {"rvm"},
    "rvm-nvram": {"rvm"},
}


def report_domains(doc):
    """The registry engines this report's sweep owns, preferring the
    report's own registry_engines field over the ENGINE_DOMAINS fallback."""
    declared = doc.get("registry_engines")
    if declared is not None:
        if (not isinstance(declared, list) or not declared or
                any(not isinstance(e, str) or not e for e in declared)):
            fail("'registry_engines' must be a non-empty array of strings")
        return set(declared)
    return ENGINE_DOMAINS.get(doc["engine"])


def load_registry():
    """Parses src/core/failure_points.hpp relative to this script.

    Returns {point-name: (engine, mc_reachable)}."""
    core = Path(__file__).resolve().parent.parent / "src" / "core"
    constants = {}
    for name in ("protocol_points.hpp", "failure_points.hpp"):
        path = core / name
        if not path.is_file():
            fail(f"--registry: {path} not found")
        constants.update(re.findall(
            r'inline\s+constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"\s*;',
            path.read_text()))
    rows = re.findall(
        r'\{\s*(k\w+)\s*,\s*"(\w+)"\s*,\s*"\w+"\s*,\s*\d+\s*,\s*(true|false)\s*\}',
        (core / "failure_points.hpp").read_text())
    if not rows:
        fail("--registry: no rows parsed from failure_points.hpp")
    registry = {}
    for ident, engine, mc in rows:
        if ident not in constants:
            fail(f"--registry: row references undefined constant {ident}")
        registry[constants[ident]] = (engine, mc == "true")
    return registry


def check_registry_coverage(docs):
    engines = sorted({doc["engine"] for doc in docs})
    if len(engines) != 1:
        fail(f"--registry: reports of one engine expected, got {', '.join(engines)}")
    engine = engines[0]
    domains = set()
    for doc in docs:
        owned = report_domains(doc)
        if owned is None:
            fail(f"--registry: no registry domain known for engine {engine!r}")
        domains |= owned
    registry = load_registry()
    fired = set()
    for doc in docs:
        fired |= {row["point"] for row in doc["points"]}
        fired |= {row["point"] for row in doc.get("recovery_points", [])}

    unregistered = sorted(p for p in fired if p not in registry)
    if unregistered:
        fail(f"fired point(s) missing from the registry: {', '.join(unregistered)}")

    owned = {p: mc for p, (eng, mc) in registry.items() if eng in domains}
    expected = {p for p, mc in owned.items() if mc}
    never_fired = sorted(expected - fired)
    if never_fired:
        fail(f"registry marks {len(never_fired)} point(s) mc-reachable for "
             f"engine {engine} but the sweeps never fired them: "
             f"{', '.join(never_fired)}")
    stale = sorted(p for p in fired if p in owned and not owned[p])
    if stale:
        fail(f"registry marks {len(stale)} point(s) mc=false for engine {engine} "
             f"but the sweeps fired them (flip the row): {', '.join(stale)}")
    return len(expected)


def fail(msg):
    ci_json.fail("check-mc-report", msg)


def require_uint(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        fail(f"{where}.{key} must be a non-negative integer, got {v!r}")
    return v


def check_points(doc, key):
    points = doc.get(key)
    if not isinstance(points, list):
        fail(f"'{key}' must be an array")
    for i, row in enumerate(points):
        if not isinstance(row, dict):
            fail(f"{key}[{i}] must be an object")
        if not isinstance(row.get("point"), str) or not row["point"]:
            fail(f"{key}[{i}].point must be a non-empty string")
        if require_uint(row, "hits", f"{key}[{i}]") < 1:
            fail(f"{key}[{i}].hits must be >= 1")
    return points


def check(doc):
    if not isinstance(doc, dict):
        fail("document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("engine", "workload"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(f"'{key}' must be a non-empty string")
    if "registry_engines" in doc:
        report_domains(doc)  # shape check; the field is optional
    require_uint(doc, "nested", "doc")
    require_uint(doc, "seed", "doc")
    if require_uint(doc, "txns", "doc") < 1:
        fail("txns must be >= 1")

    points = check_points(doc, "points")
    if not points:
        fail("'points' is empty: discovery saw no failure points at all")
    check_points(doc, "recovery_points")

    exp = doc.get("exploration")
    if not isinstance(exp, dict):
        fail("'exploration' must be an object")
    for key in ("total", "crashed", "not_reached", "nested", "minimization_runs"):
        require_uint(exp, key, "exploration")
    if exp["total"] != exp["crashed"] + exp["not_reached"]:
        fail(f"exploration.total ({exp['total']}) != crashed + not_reached "
             f"({exp['crashed']} + {exp['not_reached']})")

    violations = doc.get("violations")
    if not isinstance(violations, list):
        fail("'violations' must be an array")
    for i, v in enumerate(violations):
        where = f"violations[{i}]"
        if not isinstance(v, dict):
            fail(f"{where} must be an object")
        if v.get("invariant") not in INVARIANTS:
            fail(f"{where}.invariant {v.get('invariant')!r} not in {sorted(INVARIANTS)}")
        if not isinstance(v.get("point"), str):
            fail(f"{where}.point must be a string")
        require_uint(v, "hit", where)
        if v.get("kind") not in KINDS:
            fail(f"{where}.kind {v.get('kind')!r} not in {sorted(KINDS)}")
        if not isinstance(v.get("nested"), bool):
            fail(f"{where}.nested must be a boolean")
        if v["nested"] and not (isinstance(v.get("nested_point"), str) and v["nested_point"]):
            fail(f"{where}.nested_point must name the recovery point")
        require_uint(v, "txn", where)
        if not isinstance(v.get("detail"), str) or not v["detail"]:
            fail(f"{where}.detail must be a non-empty string")
        require_uint(v, "minimized_txns", where)
        timeline = v.get("timeline")
        if not isinstance(timeline, list) or any(
                not isinstance(line, str) for line in timeline):
            fail(f"{where}.timeline must be an array of narrative strings")
        if not timeline:
            fail(f"{where}.timeline is empty: counterexamples must embed "
                 "the flight-recorder narrative")

    if doc.get("ok") is not (len(violations) == 0):
        fail(f"'ok' is {doc.get('ok')!r} but the report lists "
             f"{len(violations)} violation(s)")
    return doc


def main():
    args = sys.argv[1:]
    expect_violations = False
    registry = False
    while args and args[0].startswith("--"):
        if args[0] == "--expect-violations":
            expect_violations = True
        elif args[0] == "--registry":
            registry = True
        else:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        args = args[1:]
    if not args or (expect_violations and (registry or len(args) != 1)):
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    docs = []
    for path in args:
        text = ci_json.read_text("check-mc-report", path)
        try:
            docs.append(check(json.loads(text)))
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")

    if expect_violations:
        doc = docs[0]
        nviol = len(doc["violations"])
        if nviol == 0:
            fail("expected violations (self-test artifact) but the report is clean")
        if not any(v["minimized_txns"] >= 1 for v in doc["violations"]):
            fail("violations found but none carries a minimized counterexample")
        print(f"check-mc-report: OK: engine={doc['engine']} seeded bug caught "
              f"({nviol} violation(s), minimized)")
        return
    for path, doc in zip(args, docs):
        nviol = len(doc["violations"])
        if nviol != 0:
            worst = doc["violations"][0]
            fail(f"{path}: {nviol} violation(s); first: [{worst['invariant']}] "
                 f"point={worst['point']} hit={worst['hit']} kind={worst['kind']} "
                 f"— {worst['detail']}")
        print(f"check-mc-report: OK: engine={doc['engine']} workload={doc['workload']} "
              f"points={len(doc['points'])} explorations={doc['exploration']['total']} "
              f"(nested {doc['exploration']['nested']})")
    if registry:
        print(f"check-mc-report: OK: engine={docs[0]['engine']} reports={len(docs)} "
              f"registry-covered={check_registry_coverage(docs)}")


if __name__ == "__main__":
    main()

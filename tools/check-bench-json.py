#!/usr/bin/env python3
"""Validate a perseas-bench/1 result document.

Usage:
    check-bench-json.py <file.json>      validate a --metrics=<file> dump
    <bench> --metrics=- | check-bench-json.py -
                                         scan stdout for the BENCH_JSON line

Checks the stable schema the bench harness (bench/bench_util.hpp) emits:

    { "schema": "perseas-bench/1", "bench": <name>,
      "rows": [...], "metrics": {"counters": {...}, "gauges": {...}}}

Exits 0 when the document is valid, 1 with a diagnostic otherwise.
Stdlib only: runs on any CI python3 without installs.
"""

import json
import sys

import ci_json

SCHEMA = "perseas-bench/1"


def fail(msg):
    ci_json.fail("check-bench-json", msg)


def load(arg):
    text = ci_json.read_text("check-bench-json", arg)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    # Mixed output (tables + one "BENCH_JSON {...}" line from --metrics=-).
    docs = [line[len("BENCH_JSON "):] for line in text.splitlines()
            if line.startswith("BENCH_JSON ")]
    if not docs:
        fail("no JSON document and no BENCH_JSON line found in input")
    if len(docs) > 1:
        fail(f"expected exactly one BENCH_JSON line, found {len(docs)}")
    return json.loads(docs[0])


def check(doc):
    if not isinstance(doc, dict):
        fail("document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail("'bench' must be a non-empty string")

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("'rows' must be a non-empty array")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            fail(f"rows[{i}] must be a non-empty object")
        for k, v in row.items():
            # "ledger" (bench_mt) says whether a cost ledger was attached;
            # it is the one boolean a row may carry.
            if k == "ledger":
                if not isinstance(v, bool):
                    fail(f"rows[{i}].ledger must be true or false, got {v!r}")
            elif not isinstance(v, (int, float, str)) or isinstance(v, bool):
                fail(f"rows[{i}].{k} has non-scalar value {v!r}")
        # Ablation rows label the coalescing leg with the effective config
        # value (PERSEAS_COALESCE may override what the bench requested).
        if "coalesce" in row and row["coalesce"] not in ("on", "off"):
            fail(f'rows[{i}].coalesce must be "on" or "off", got {row["coalesce"]!r}')
        # Thread-sweep rows (bench_mt): the multi-threaded frontend reports
        # one row per thread count.  The accounting identities must hold on
        # the serialized artifact too: every simulated nanosecond the workers
        # charged reached the shared clock (total_work_ns == clock_delta_ns),
        # and a disjoint-partition run saw zero conflicts.
        if "threads" in row:
            threads = row["threads"]
            if not isinstance(threads, int) or threads < 1:
                fail(f"rows[{i}].threads must be a positive integer, "
                     f"got {threads!r}")
            for k in ("txns_per_second", "makespan_ns"):
                v = row.get(k)
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                    fail(f"rows[{i}].{k} must be positive, got {v!r}")
            work = row.get("total_work_ns")
            delta = row.get("clock_delta_ns")
            if work is not None and delta is not None and work != delta:
                fail(f"rows[{i}]: per-thread accounting leaked virtual time: "
                     f"total_work_ns = {work} but the shared clock "
                     f"advanced {delta} ns")
            if row.get("mode") == "disjoint" and row.get("conflicts", 0) != 0:
                fail(f"rows[{i}]: disjoint partitions must not conflict, "
                     f"got conflicts={row.get('conflicts')!r}")
            # Forced-conflict rows: a victim claim on branch 0's row makes
            # every raid (each conflict_every-th transaction of workers
            # 1..N-1) lose, so a count under that floor means the smoke
            # proved nothing.  The floor holds with and without a ledger.
            if row.get("mode") == "conflicting":
                every = row.get("conflict_every")
                if not isinstance(every, int) or isinstance(every, bool) or every < 1:
                    fail(f"rows[{i}].conflict_every must be a positive "
                         f"integer, got {every!r}")
                floor = (threads - 1) * (row.get("txns_per_thread", 0) // every)
                if row.get("conflicts", 0) < floor:
                    fail(f"rows[{i}]: every raid must lose, so conflicts >= "
                         f"{floor}, got conflicts={row.get('conflicts')!r}")
        # CC-policy sweep rows (bench_cc): per-row structural invariants.
        # The interleavings are not deterministic, so golden values are out;
        # what must always hold is the abort-reason accounting and the
        # confinement of each specialised reason to the one policy that can
        # produce it.
        if row.get("mode") == "cc_sweep":
            policy = row.get("policy")
            if policy not in ("fww", "wait-die", "validate"):
                fail(f"rows[{i}].policy must name a known CC policy, "
                     f"got {policy!r}")
            for k in ("conflicts", "wounded", "validation_failed", "txns"):
                v = row.get(k)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    fail(f"rows[{i}].{k} must be a non-negative integer, "
                         f"got {v!r}")
            if row["wounded"] + row["validation_failed"] > row["conflicts"]:
                fail(f"rows[{i}] ({policy}): wounded + validation_failed "
                     f"exceeds the conflict total")
            if policy != "wait-die" and row["wounded"] != 0:
                fail(f"rows[{i}] ({policy}): only wait-die wounds, "
                     f"got wounded={row['wounded']}")
            if policy != "validate" and row["validation_failed"] != 0:
                fail(f"rows[{i}] ({policy}): only validate-at-commit fails "
                     f"validation, got "
                     f"validation_failed={row['validation_failed']}")
            expected = row.get("threads", 0) * row.get("txns_per_thread", 0)
            if expected and row["txns"] != expected:
                fail(f"rows[{i}] ({policy}): committed {row['txns']} of "
                     f"{expected} transactions — a policy wedged the "
                     f"workload")

    # Each forced-conflict cell runs with a cost ledger attached and
    # without, so the two conflict counts can be compared: a document
    # missing either variant of a cell would pass every per-row check.
    cells = {}
    for row in rows:
        if row.get("mode") == "conflicting":
            cell = (row.get("threads"), row.get("conflict_every"),
                    row.get("txns_per_thread"))
            cells.setdefault(cell, []).append(row.get("ledger"))
    for (threads, every, txns), variants in sorted(cells.items()):
        if len(variants) != 2 or set(variants) != {False, True}:
            fail(f"conflicting cell threads={threads} conflict_every={every} "
                 f"txns_per_thread={txns} must have one row with "
                 f"ledger=true and one with ledger=false, got "
                 f"{variants!r}")

    # A cc_sweep document must compare all three policies — a sweep that
    # silently dropped one would still pass every per-row check above.
    cc_policies = {row["policy"] for row in rows
                   if isinstance(row, dict) and row.get("mode") == "cc_sweep"}
    if cc_policies and cc_policies != {"fww", "wait-die", "validate"}:
        fail(f"cc_sweep rows cover policies {sorted(cc_policies)}, "
             f"expected all of ['fww', 'validate', 'wait-die']")

    # Optional per-transaction cost-ledger section (bench_trend emits it):
    # every charged simulated nanosecond keyed by (txn, phase, layer,
    # channel), with conservation — sum(rows) == total_ns == the clock
    # delta the bench measured — checked here a second time, on the
    # serialized artifact.
    ledger = doc.get("ledger")
    if ledger is not None:
        if not isinstance(ledger, dict):
            fail("'ledger' must be an object")
        lrows = ledger.get("rows")
        if not isinstance(lrows, list) or not lrows:
            fail("ledger.rows must be a non-empty array")
        ns_sum = 0
        keys = set()
        for i, row in enumerate(lrows):
            if not isinstance(row, dict):
                fail(f"ledger.rows[{i}] must be an object")
            for k in ("txn", "ns", "bytes"):
                v = row.get(k)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    fail(f"ledger.rows[{i}].{k} must be a non-negative "
                         f"integer, got {v!r}")
            for k in ("phase", "layer", "channel"):
                if not isinstance(row.get(k), str) or not row[k]:
                    fail(f"ledger.rows[{i}].{k} must be a non-empty string")
            # The ledger books per thread and merges on read: a key seen
            # twice means the merge let a thread's row through unsummed.
            key = (row["txn"], row["phase"], row["layer"], row["channel"])
            if key in keys:
                fail(f"ledger.rows[{i}] repeats the key txn={key[0]} "
                     f"phase={key[1]!r} layer={key[2]!r} "
                     f"channel={key[3]!r}")
            keys.add(key)
            ns_sum += row["ns"]
        total = ledger.get("total_ns")
        if total != ns_sum:
            fail(f"ledger.total_ns ({total!r}) != sum of row ns ({ns_sum})")
        delta = ledger.get("clock_delta_ns")
        if delta is not None and delta != ns_sum:
            fail(f"ledger conservation violated: sum(ledger) = {ns_sum} ns "
                 f"but the simulated clock advanced {delta} ns")
        phases = ledger.get("by_phase")
        if not isinstance(phases, list) or not phases:
            fail("ledger.by_phase must be a non-empty array")
        by_phase_sum = sum(p.get("ns", 0) for p in phases
                           if isinstance(p, dict))
        if by_phase_sum != ns_sum:
            fail(f"ledger.by_phase sums to {by_phase_sum} ns, "
                 f"rows sum to {ns_sum}")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("'metrics' must be an object")
    for section in ("counters", "gauges"):
        if not isinstance(metrics.get(section), dict):
            fail(f"metrics.{section} must be an object")
    counters = metrics["counters"]
    for name, v in counters.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(f"counter {name} must be a non-negative integer, got {v!r}")

    # Every PERSEAS instance exports the write-set coalescing series even
    # with coalescing off (all-zero), so for each db label that exported any
    # perseas_* counter the full set must be present.
    perseas_dbs = {name.split('db="', 1)[1].split('"', 1)[0]
                   for name in counters
                   if name.startswith("perseas_") and 'db="' in name}
    for db in sorted(perseas_dbs):
        required = [f'perseas_ranges_coalesced_total{{db="{db}"}}']
        for channel in ("undo", "propagate"):
            required.append(f'perseas_bytes_dedup_total{{db="{db}",channel="{channel}"}}')
            required.append(f'perseas_sci_writes_total{{db="{db}",channel="{channel}"}}')
        for series in required:
            if series not in counters:
                fail(f"db {db!r} is missing coalescing counter {series}")
    return doc


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    doc = check(load(sys.argv[1]))
    print(f"check-bench-json: OK: bench={doc['bench']} "
          f"rows={len(doc['rows'])} "
          f"counters={len(doc['metrics']['counters'])}")


if __name__ == "__main__":
    main()

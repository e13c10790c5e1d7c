#!/usr/bin/env python3
"""ctest driver: a real C++ blackbox dump renders the same in Python.

Usage:
    blackbox_roundtrip_test.py <path-to-blackbox_dump_writer>

Runs the writer, which dumps a cluster's flight recorder after an injected
crash and a recovery and prints FlightRecorder::narrative() on stdout.
Then renders the dump with tools/perseas-blackbox.py and requires exactly
the same lines.  The dump must carry failure-point firings (string ids
that name registry rows) and recovery steps and an anomaly (interned
string ids), so both halves of the string table are exercised.

Prints "roundtrip OK" and exits 0 on success, exits 1 otherwise.
"""

import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

BLACKBOX = Path(__file__).resolve().parents[2] / "tools" / "perseas-blackbox.py"


def load_renderer():
    spec = importlib.util.spec_from_file_location("perseas_blackbox", BLACKBOX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    renderer = load_renderer()
    with tempfile.TemporaryDirectory(prefix="perseas-blackbox.") as td:
        dump = Path(td) / "dump.bin"
        proc = subprocess.run([sys.argv[1], str(dump)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"blackbox-roundtrip: writer failed (exit {proc.returncode}): "
                  f"{proc.stderr.strip()}", file=sys.stderr)
            return 1
        expected = proc.stdout.splitlines()
        _header, kinds, strings, events = renderer.parse(dump.read_bytes())
    rendered = [renderer.render_event(e, kinds, strings) for e in events]

    for needle in (" fault.point point=perseas.commit.after_range_copy ",
                   " recover.step step=", " fault.anomaly what=roundtrip anomaly"):
        if not any(needle in line for line in expected):
            print(f"blackbox-roundtrip: no narrative line contains {needle!r}",
                  file=sys.stderr)
            return 1
    if rendered != expected:
        for i, (want, got) in enumerate(zip(expected, rendered)):
            if want != got:
                print(f"blackbox-roundtrip: line {i} differs:\n"
                      f"  C++:    {want}\n  Python: {got}", file=sys.stderr)
                return 1
        print(f"blackbox-roundtrip: C++ rendered {len(expected)} line(s), "
              f"Python {len(rendered)}", file=sys.stderr)
        return 1
    print(f"blackbox-roundtrip: roundtrip OK ({len(rendered)} events, "
          f"{len(strings)} strings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

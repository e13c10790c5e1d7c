#!/usr/bin/env python3
"""ctest driver for perseas-verify check V3 against a *fresh* mc report.

Usage:
    verify-v3-test.py <path-to-perseas-mc> [mc-args...]

Runs a quick exhaustive perseas-mc sweep (--engine=perseas --txns=1, one
kind — enough to fire the whole commit and recovery windows in a few
seconds), writes its perseas-mc/1 report to a temp directory, and then
runs tools/perseas-verify.py --mc-report over it.  Any dynamically fired
point the static frontend cannot reach fails the test: the verifier lost
a call edge, and the gap is caught here rather than in CI.

Extra arguments are appended to the perseas-mc invocation (the CI
model-check job reuses this driver with the canonical full sweep's
arguments).  Exits with perseas-verify's status.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    mc = sys.argv[1]
    extra = sys.argv[2:] or ["--engine=perseas", "--txns=1", "--kinds=software"]

    with tempfile.TemporaryDirectory(prefix="perseas-verify-v3.") as td:
        report = Path(td) / "mc-report.json"
        cmd = [mc, *extra, f"--report={report}"]
        print("verify-v3: " + " ".join(cmd), flush=True)
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"verify-v3: perseas-mc failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        verify = [sys.executable, str(TOOLS / "perseas-verify.py"),
                  "--mc-report", str(report)]
        print("verify-v3: " + " ".join(verify), flush=True)
        return subprocess.run(verify).returncode


if __name__ == "__main__":
    sys.exit(main())

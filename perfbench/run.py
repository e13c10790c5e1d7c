#!/usr/bin/env python3
"""Build and run the PERSEAS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It configures perfbench/ with CMake into
.bench_build/ (reused by later runs), builds the perfbench binary from the
sources under src/, and runs it.  Build output goes to standard error; the
last line of standard output is the binary's JSON result.  Traced runs
(--trace 1) write their spans to .bench_build/spans/.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Environment variables through which the library overrides its config or
# installs observers.  They are removed before building and running, so an
# ambient setting cannot change what is measured.
OVERRIDES = [
    "PERSEAS_COALESCE", "PERSEAS_CC", "PERSEAS_VALIDATE_WRITES", "PERSEAS_TRACE",
    "PERSEAS_METRICS", "PERSEAS_BLACKBOX", "PERSEAS_MC_SEED_BUG",
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail("run from the repository root (perfbench/CMakeLists.txt not found)")
    if not (root / "src" / "core" / "perseas.hpp").is_file():
        fail("no PERSEAS sources under src/; nothing to build")

    env = dict(os.environ)
    for name in OVERRIDES:
        if name in env:
            print(f"perfbench: ignoring {name}={env.pop(name)!r}", file=sys.stderr)

    build = root / ".bench_build"
    if not (build / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", "perfbench", "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, env=env, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")

    cmd = [str(build / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = build / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()

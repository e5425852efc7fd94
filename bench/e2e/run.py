#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run one workload.

    python3 bench/e2e/run.py --workload browse --seed 1 --seconds 15 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e) and is incremental, so only the first run in a
checkout compiles.  The last line of standard output is the run as one
JSON object; the full record (per-segment values, sample counts) is kept
under .../e2e-results/ for compare.py, and the traced run's Chrome trace
and per-layer table land there too.  Exits non-zero without a result when
the library sources are missing or the build fails.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("browse", "scan", "ingest_mix", "burst")
TIMEOUT_S = 170


def build_root():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no library sources at %s" % (ROOT / "src"), file=sys.stderr)
        return False
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir)],
             ["cmake", "--build", str(out_dir), "--target", "bench_e2e", "-j", "4"]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, timeout=840).returncode != 0:
            print("run.py: build step failed: %s" % " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = build_root()
    out_dir = root / "e2e"
    if not build(out_dir):
        return 2
    results = root / "e2e-results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / "e2e-work"
    # A run killed mid-way leaves its farm behind; runs here are sequential.
    shutil.rmtree(work, ignore_errors=True)
    record = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [str(out_dir / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(record),
           "--workdir", str(work), "--artifacts", str(results)]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

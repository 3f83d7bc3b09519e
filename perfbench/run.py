#!/usr/bin/env python3
"""Build and run the Morpheus host-speed benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload membound_bl --seed 1 --seconds 10 --trace 0

Workloads: membound_bl, membound_morpheus, fig12_sweep
(perfbench/README.md says why each one is there). The simulator library
and the benchmark driver are compiled from source, as a Release build,
into .bench_build/perfbench; build output goes to stderr. The driver's
report goes to stdout, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer ones and writes a Chrome
trace-event file. Result records, traces and the sweep's result cache are
written to .bench_build/perfbench-out.

The exit code is 0 only when a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
# Kept out of tuning: later performance claims must also hold on it.
HELD_OUT_SEED = 7919

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "morpheus_perfbench"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def tree_digest():
    """sha256 over the sources the binary is built from, so a result can be
    tied to its code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "gpu" / "gpu_system.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    # The benchmark fixes its own work scale, sweep width and execution
    # mode; none may leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MORPHEUS_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT_DIR), "--git-sha", git_sha(), "--tree-digest", tree_digest()]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1]) if lines else {}
    missing = declared_metrics(args.trace) - set(result.get("metrics", {}))
    if missing:
        fail(f"metrics missing from the result: {sorted(missing)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the end-to-end GRETA benchmark (see README.md here).

    python3 bench/e2e/run.py --workload q1_sliding --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds an
optimized greta_bench under .bench_build/e2e (build output goes to stderr);
later calls rebuild incrementally. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Every run also appends its full
record (provenance, metrics, detail) to --results, the input of compare.py.
--workload all runs the four workloads one after another.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"

# Fixed per workload, the same on every commit: the closed-loop event count
# (about half a second per repetition at commit 7862b2c) and the two
# absolute open-loop rates in events/s. `heavy` sits at about a quarter of
# commit 7862b2c's peak_eps, half of the lowest seen (the shared
# development host's speed swings up to 2x). `light` is low enough that router batching, not host
# speed, sets its latency (README "Run-to-run spread"). Both close over 1000
# windows per phase.
WORKLOADS = {
    "q1_sliding": {"closed_events": 1_000_000, "light_eps": 40_000,
                   "heavy_eps": 500_000},
    "shared8_partial": {"closed_events": 120_000, "light_eps": 30_000,
                        "heavy_eps": 80_000},
    "fanout_groups": {"closed_events": 450_000, "light_eps": 20_000,
                      "heavy_eps": 200_000},
    "bursty_negation": {"closed_events": 40_000, "light_eps": 8_000,
                        "heavy_eps": 18_000},
}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds greta_bench; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "greta_bench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD / "greta_bench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(binary, name, args, sha):
    """Runs one workload; returns (record, result, returncode)."""
    sizes = WORKLOADS[name]
    closed_events = sizes["closed_events"] // (10 if args.smoke else 1)
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={name}",
           f"--spec={HERE / 'workloads' / (name + '.json')}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--closed-events={closed_events}",
           f"--light-eps={sizes['light_eps']}",
           f"--heavy-eps={sizes['heavy_eps']}", f"--out-dir={out_dir}",
           f"--git-sha={sha}"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    record = result = None
    for line in lines:
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
        elif not line.startswith("{"):
            print(line, flush=True)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return record, result, done.returncode


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        default_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one second per workload")
    parser.add_argument("--results", type=Path,
                        default=BUILD / "results.jsonl",
                        help="JSON-lines file every run record is appended to")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    sha = git_sha()
    results = []
    status = 0
    for name in names:
        try:
            record, result, code = run_workload(binary, name, args, sha)
        except subprocess.TimeoutExpired:
            log(f"error: {name} ran past {RUN_TIMEOUT_S} s")
            return 3
        if record is None or result is None:
            log(f"error: {name} printed no result (exit code {code})")
            return code or 3
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a") as f:
            f.write(json.dumps(record) + "\n")
        results.append((name, result))
        status = status or code

    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results
                        for metric, value in r["metrics"].items()},
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Perf-smoke comparison for CI.

Compares the current run's benchmark JSON lines against a committed
baseline and prints a GitHub-Actions warning for every configuration whose
throughput dropped more than the threshold. By default it never fails the
build: CI runners are noisy and the baseline was recorded on different
hardware, so the report is a trend signal, not a gate. Pass --strict to
turn regressions beyond the threshold into a non-zero exit status (for
release branches or a dedicated perf runner with a trusted baseline).

When a row carries peak_bytes in both files, its growth is diffed too, at
a fixed 2% margin: tracked bytes are counted analytically from the data
structures, not sampled, so they do not depend on the host. Memory growth
beyond 2% is a regression under --strict like a throughput drop.

Inputs are files of JSON objects, one per line:
  {"bench": "hotpath", "config": "count_modular", "events_per_sec": ...}
  {"bench": "micro", "config": "BM_GretaProcessEvent", "events_per_sec": ...}
Rows without an events_per_sec field (summary rows like the telemetry
bench's overhead line) are ignored.

Usage:
  perf_smoke.py --baseline bench/baselines/BENCH_batch_baseline.json \
                --current BENCH_batch.json [--threshold 0.30] [--strict]
"""

import argparse
import json
import sys

MEMORY_THRESHOLD = 0.02  # peak_bytes growth counted as a regression


def load_rows(path):
    rows = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(obj, dict):
                    continue  # a bare JSON array/number is not a bench row
                key = "%s/%s" % (obj.get("bench", "?"), obj.get("config", "?"))
                try:
                    eps = float(obj.get("events_per_sec"))
                except (TypeError, ValueError):
                    continue  # summary rows carry no events_per_sec
                if eps > 0:
                    peak = obj.get("peak_bytes")
                    rows[key] = (eps, peak if isinstance(peak, int) else None)
    except OSError as e:
        print("::warning::perf-smoke: cannot read %s: %s" % (path, e))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any configuration regresses "
                             "beyond the threshold (default: report-only)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    if not baseline or not current:
        print("perf-smoke: missing data (baseline=%d rows, current=%d rows);"
              " skipping" % (len(baseline), len(current)))
        return 0

    regressions = 0
    for key, (base_eps, base_peak) in sorted(baseline.items()):
        if key not in current:
            print("::warning::perf-smoke: %s missing from current run" % key)
            continue
        cur_eps, cur_peak = current[key]
        if base_peak is not None and cur_peak is not None:
            growth = cur_peak / base_peak - 1.0 if base_peak > 0 else 0.0
            line = "perf-smoke: %-28s baseline %12d B peak, current %12d B" \
                   " (%+.1f%%)" % (key, base_peak, cur_peak, growth * 100)
            if growth > MEMORY_THRESHOLD:
                regressions += 1
                print("::warning::%s -- memory growth beyond %.0f%%"
                      % (line, MEMORY_THRESHOLD * 100))
            else:
                print(line)
        ratio = cur_eps / base_eps if base_eps > 0 else float("inf")
        line = "perf-smoke: %-28s baseline %12.0f ev/s, current %12.0f ev/s" \
               " (%.2fx)" % (key, base_eps, cur_eps, ratio)
        if ratio < 1.0 - args.threshold:
            regressions += 1
            print("::warning::%s -- regression beyond %.0f%%"
                  % (line, args.threshold * 100))
        else:
            print(line)

    for key in sorted(set(current) - set(baseline)):
        print("perf-smoke: %s is new (no baseline); %.0f ev/s"
              % (key, current[key][0]))

    print("perf-smoke: %d regression(s) beyond threshold (%s)"
          % (regressions, "strict" if args.strict else "report-only"))
    if args.strict and regressions > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

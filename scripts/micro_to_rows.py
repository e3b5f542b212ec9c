#!/usr/bin/env python3
"""Folds google-benchmark JSON output into bench_mechanisms' one-object-per-
line row shape (case "micro", items_per_second -> events_per_sec) so
perf_smoke.py diffs the micro-benchmarks beside the mechanism rows."""

import json
import sys


def main():
    if len(sys.argv) != 2:
        print("usage: micro_to_rows.py <benchmark.json>", file=sys.stderr)
        return 1
    try:
        with open(sys.argv[1]) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("::warning::perf-smoke: no micro results (%s)" % e,
              file=sys.stderr)
        return 0
    for bench in data.get("benchmarks", []):
        ips = bench.get("items_per_second")
        if ips:
            print(json.dumps({"case": "micro", "contender": bench["name"],
                              "events_per_sec": ips}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

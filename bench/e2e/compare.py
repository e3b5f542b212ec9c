#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results (stdlib only).

    python3 bench/e2e/compare.py BASE.jsonl HEAD.jsonl
    python3 bench/e2e/compare.py --same-code A.jsonl B.jsonl

Each file holds run records as appended by run.py --results (one JSON object
per line); traced and smoke runs are ignored. For every (metric, workload)
pair the script prints each side's median and quartiles, how many run pairs
the head side wins, and a verdict under the bounds in BENCHMARK.json:

  regression   the head median is worse than the base median by more than
               the metric's bound (setup_s: also by more than SETUP_FLOOR_S);
  improvement  at least 10 pairs, the head wins at least 9 in 10 of them,
               and the medians differ by more than the base's quartile
               distance;
  unresolved   the base's spread (quartile distance / median) is wider than
               the bound, unless every head run beats every base run;
  unchanged    otherwise.

The per-layer metrics an untraced run also records (its "extra" block) have
no bound: they read `improvement` or `worse` by the 9-in-10 rule, else
`no claim`. Runs are paired by seed when both sides ran the same seeds,
else in file order (run the sides alternately). Exit status: 1 when any
verdict is a regression, or with --same-code (two sets of runs of one
commit, the repeatability check) when any verdict is a regression, an
improvement or worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# setup_s is sub-millisecond, so a share of it alone would flag scheduler
# noise; a regression must also exceed this many seconds.
SETUP_FLOOR_S = 0.0005


def load(path):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace") or record.get("smoke"):
                continue
            seed = record["provenance"]["seed"]
            metrics = dict(record.get("extra", {}), **record["metrics"])
            for name, metric in metrics.items():
                runs[(record["workload"], name)].append(
                    (seed, metric["value"]))
    return runs


def pair(base, head):
    base_seeds = [s for s, _ in base]
    if sorted(base_seeds) == sorted(s for s, _ in head) and \
            len(set(base_seeds)) == len(base_seeds):
        by_seed = dict(head)
        return [(v, by_seed[s]) for s, v in base]
    return list(zip([v for _, v in base], [v for _, v in head]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec, base, head):
    lower = spec["better"] == "lower"
    bound = spec.get("bound")
    b = [v for _, v in base]
    h = [v for _, v in head]
    b1, bm, b3 = quartiles(b)
    _, hm, _ = quartiles(h)
    pairs = pair(base, head)
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    losses = sum(1 for x, y in pairs if (y > x if lower else y < x))
    worse = (hm - bm) if lower else (bm - hm)
    clear = abs(hm - bm) > b3 - b1

    def rule(count):
        return len(pairs) >= 10 and count >= 0.9 * len(pairs) and clear

    if bound is None:
        result = ("improvement" if rule(wins) and worse < 0 else
                  "worse" if rule(losses) and worse > 0 else "no claim")
    else:
        all_better = (max(h) < min(b)) if lower else (min(h) > max(b))
        allowed = bound * abs(bm)
        if spec["name"] == "setup_s":
            allowed = max(allowed, SETUP_FLOOR_S)
        if bm and (b3 - b1) / abs(bm) > bound and not all_better:
            result = "unresolved"
        elif worse > allowed:
            result = "regression"
        elif rule(wins) and worse < 0:
            result = "improvement"
        else:
            result = "unchanged"
    return {"base": (b1, bm, b3), "head": quartiles(h), "wins": wins,
            "pairs": len(pairs), "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--same-code", action="store_true",
                        help="both sets are runs of one commit")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = bench["end_to_end"] + bench["per_layer"]
    base = load(args.base)
    head = load(args.head)
    workloads = sorted({w for w, _ in base} & {w for w, _ in head})
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2

    print(f"{'metric':18s} {'workload':16s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s} {'wins':>7s} "
          f"verdict")
    failures = {"regression"}
    if args.same_code:
        failures |= {"improvement", "worse"}
    bad = []
    for spec in specs:
        for w in workloads:
            key = (w, spec["name"])
            if key not in base or key not in head:
                continue
            v = verdict(spec, base[key], head[key])
            b1, bm, b3 = v["base"]
            h1, hm, h3 = v["head"]
            change = (hm - bm) / bm if bm else 0.0
            print(f"{spec['name']:18s} {w:16s} "
                  f"{bm:12.6g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{hm:12.6g} [{h1:9.4g}, {h3:9.4g}] "
                  f"{change:+8.2%} {v['wins']:3d}/{v['pairs']:<3d} "
                  f"{v['verdict']}")
            if v["verdict"] in failures:
                bad.append(f"{spec['name']} on {w}: {v['verdict']}")
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

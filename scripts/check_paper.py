#!/usr/bin/env python3
"""Judges whether bench_paper's rows reproduce GRETA's central claims.

Stdlib only. Reads bench_paper's stdout (or a recorded results file) on
stdin; lines that are not JSON objects (the tables) are skipped. Prints one
verdict per claim, `reproduced` or `not reproduced`, with the numbers
behind it. The claims test shapes, not absolute numbers:

  Thm 8.1   complexity: time and edges grow at most quadratically,
            f(n_max)/f(n_min) <= (n_max/n_min)^2.
  Thm 8.2   complexity: peak bytes grow at most linearly.
  speed-up  per figure/query case, from the first sweep point where any
            baseline DNFs (the last point when none does), every baseline
            DNFs or is >= 10x slower than GRETA.
  memory    same points: every baseline DNFs or peaks above GRETA.
  ablation  the tree lookup beats the scan in time; the shared graph
            stores fewer vertices than per-window replication.

A verdict is a finding, not a gate: the exit status is non-zero only when
the provenance, a case or a row is missing or malformed.

Usage:  ./build/bench_paper | python3 scripts/check_paper.py
        python3 scripts/check_paper.py < bench/results/paper.jsonl
"""

import json
import sys

CASES = ["fig14", "fig15", "fig16", "fig17", "q1", "q2", "q3", "variations",
         "complexity", "ablation-tree", "ablation-windows"]
BASELINE_CASES = ["fig14", "fig15", "fig16", "fig17", "q1", "q2", "q3"]
FIELDS = {"case": str, "x": (int, float), "engine": str, "dnf": bool,
          "error": str, "seconds": (int, float),
          "events_per_sec": (int, float), "peak_bytes": int, "vertices": int,
          "edges": int, "rows": int}
SPEEDUP = 10.0


class Malformed(Exception):
    pass


def load(lines):
    provenance, rows = None, []
    for n, line in enumerate(lines, 1):
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:
            raise Malformed("line %d: %s" % (n, e))
        if "provenance" in obj:
            provenance = obj
            continue
        for field, kind in FIELDS.items():
            if not isinstance(obj.get(field), kind):
                raise Malformed("line %d: field %r missing or not %s"
                                % (n, field, kind))
        rows.append(obj)
    if provenance is None:
        raise Malformed("no provenance row")
    for case in CASES:
        if not any(r["case"] == case and r["engine"] == "GRETA" for r in rows):
            raise Malformed("case %s has no GRETA row" % case)
    return provenance, rows


def by_x(rows, case, engine):
    return {r["x"]: r for r in rows
            if r["case"] == case and r["engine"] == engine}


def one(rows, case, engine):
    found = by_x(rows, case, engine)
    if len(found) != 1:
        raise Malformed("%s: expected one %s row, found %d"
                        % (case, engine, len(found)))
    return next(iter(found.values()))


def verdict(ok, claim, detail):
    print("%-15s %-20s %s" % ("reproduced" if ok else "not reproduced",
                              claim, detail))


def check_complexity(rows):
    points = by_x(rows, "complexity", "GRETA")
    if len(points) < 2:
        raise Malformed("complexity needs at least two sweep points")
    lo, hi = points[min(points)], points[max(points)]
    scale = hi["x"] / lo["x"]
    ratios = {}
    for key in ("seconds", "edges", "peak_bytes"):
        if lo[key] <= 0:
            raise Malformed("complexity: %s at n=%g is not positive"
                            % (key, lo["x"]))
        ratios[key] = hi[key] / lo[key]
    span = "n %g->%g (%gx)" % (lo["x"], hi["x"], scale)
    verdict(ratios["seconds"] <= scale ** 2 and ratios["edges"] <= scale ** 2,
            "Thm 8.1 time", "%s: time %.1fx, edges %.1fx, bound %gx"
            % (span, ratios["seconds"], ratios["edges"], scale ** 2))
    verdict(ratios["peak_bytes"] <= scale, "Thm 8.2 space",
            "%s: peak bytes %.1fx, bound %gx"
            % (span, ratios["peak_bytes"], scale))


def check_baselines(rows, case):
    greta = by_x(rows, case, "GRETA")
    others = sorted({r["engine"] for r in rows
                     if r["case"] == case and r["engine"] != "GRETA"})
    if not others:
        raise Malformed("%s has no baseline rows" % case)
    xs = sorted(greta)
    dnf_xs = [x for x in xs if any(by_x(rows, case, e).get(x, {}).get("dnf")
                                   for e in others)]
    window = [x for x in xs if x >= dnf_xs[0]] if dnf_xs else xs[-1:]
    speed, memory = [], []
    speed_ok = memory_ok = True
    for x in window:
        g = greta[x]
        for e in others:
            r = by_x(rows, case, e).get(x)
            if r is None:
                raise Malformed("%s x=%g has no %s row" % (case, x, e))
            if r["dnf"]:
                speed.append("%s@%g DNF" % (e, x))
                continue
            if r["error"]:
                speed_ok = memory_ok = False
                speed.append("%s@%g error" % (e, x))
                continue
            slower = r["seconds"] / g["seconds"] if g["seconds"] > 0 else 0
            speed_ok = speed_ok and slower >= SPEEDUP
            speed.append("%s@%g %.1fx" % (e, x, slower))
            more = r["peak_bytes"] / max(g["peak_bytes"], 1)
            memory_ok = memory_ok and more > 1.0
            memory.append("%s@%g %.2fx" % (e, x, more))
    start = ("from first DNF at x=%g" % window[0] if dnf_xs
             else "no DNF, last x=%g" % window[0])
    verdict(speed_ok, "speed-up " + case, "%s: baseline time / GRETA: %s"
            % (start, ", ".join(speed)))
    verdict(memory_ok, "memory " + case, "%s: baseline peak / GRETA: %s"
            % (start, ", ".join(memory) or "all DNF"))


def check_ablations(rows):
    tree = one(rows, "ablation-tree", "GRETA")
    scan = one(rows, "ablation-tree", "GRETA-scan")
    verdict(tree["seconds"] < scan["seconds"], "ablation tree",
            "tree %.2f ms vs scan %.2f ms"
            % (tree["seconds"] * 1e3, scan["seconds"] * 1e3))
    shared = one(rows, "ablation-windows", "GRETA")
    replicated = one(rows, "ablation-windows", "GRETA-replicated")
    verdict(shared["vertices"] < replicated["vertices"], "ablation windows",
            "shared %d vertices vs replicated %d"
            % (shared["vertices"], replicated["vertices"]))


def main():
    try:
        provenance, rows = load(sys.stdin)
        print("provenance: %s" % json.dumps(provenance["provenance"]))
        check_complexity(rows)
        for case in BASELINE_CASES:
            check_baselines(rows, case)
        check_ablations(rows)
    except Malformed as e:
        print("check_paper: malformed input: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

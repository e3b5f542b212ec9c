#!/usr/bin/env python3
"""Perf-smoke comparison of two bench_mechanisms row files.

Reads a committed results file (bench/results/mechanisms.jsonl) and the
current run's rows, one JSON object per line, and reports every row whose
numbers moved the wrong way:

  - peak_bytes growth beyond 2%, on every host: tracked bytes are counted
    analytically from the data structures, not sampled, so they do not
    depend on the host. Sharded rows carry shard_peak_bytes instead (worker
    interleaving moves their peak) and are not gated;
  - batch_fallback_frac above the committed value, on every host: a config
    that silently falls back to the row kernel shows up here, whatever the
    host's speed;
  - on the same host only (both files' provenance rows, the {"provenance":
    ...} line bench_mechanisms prints first, name the same nproc, cpu_model
    and build_type): a contender whose median events/s relative to its
    point's reference (the point's first row) fell by more than
    --threshold. The contenders of a point run interleaved, so a slow phase
    of a shared host slows a mechanism and its twin alike and leaves their
    ratio alone; absolute events/s are printed but not gated. Sharded rows
    are not gated either: their speed-up depends on how many cores are free.
    Throughput from another host says nothing about this change, so there
    the throughput lines are skipped with a notice.

Rows are keyed by case/x/contender (bench_mechanisms) or case/contender
(google-benchmark rows folded in by micro_to_rows.py). By default the report
never fails; --strict turns any regression into a non-zero exit status.

Usage:
  perf_smoke.py --baseline bench/results/mechanisms.jsonl \\
                --current PERF_current.jsonl [--threshold 0.30] [--strict]
"""

import argparse
import json
import sys

MEMORY_THRESHOLD = 0.02  # peak_bytes growth counted as a regression
HOST_KEYS = ("nproc", "cpu_model", "build_type")


def number(row, field):
    value = row.get(field)
    return value if isinstance(value, (int, float)) else None


def load(path):
    """Returns (provenance dict or None, {key: row}); each bench_mechanisms
    row gains vs_ref, its events/s over its point's reference's."""
    provenance, rows, refs = None, {}, {}
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
                if isinstance(obj.get("provenance"), dict):
                    provenance = obj["provenance"]
                    continue
                if "case" not in obj or "contender" not in obj:
                    continue
                eps = number(obj, "events_per_sec")
                if "x" in obj and eps:
                    point = (obj["case"], obj["x"])
                    if point in refs:
                        obj["vs_ref"] = eps / refs[point]
                    else:
                        refs[point] = eps
                key = "/".join(str(obj[k]) for k in ("case", "x", "contender")
                               if k in obj)
                rows[key] = obj
    except OSError as e:
        print("::warning::perf-smoke: cannot read %s: %s" % (path, e))
    return provenance, rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any row regresses "
                             "(default: report-only)")
    args = parser.parse_args()

    base_host, baseline = load(args.baseline)
    cur_host, current = load(args.current)
    if not baseline or not current:
        print("perf-smoke: missing data (baseline=%d rows, current=%d rows);"
              " skipping" % (len(baseline), len(current)))
        return 1 if args.strict else 0

    same_host = (base_host is not None and cur_host is not None and
                 all(base_host.get(k) == cur_host.get(k) for k in HOST_KEYS))
    if not same_host:
        print("perf-smoke: the files come from different hosts (%s vs %s); "
              "events_per_sec diffs skipped, peak_bytes and "
              "batch_fallback_frac still gated"
              % tuple(", ".join(str((h or {}).get(k)) for k in HOST_KEYS)
                      for h in (base_host, cur_host)))

    regressions = 0

    def report(key, line, regressed, why):
        nonlocal regressions
        if regressed:
            regressions += 1
            print("::warning::perf-smoke: %-44s %s -- %s" % (key, line, why))
        else:
            print("perf-smoke: %-44s %s" % (key, line))

    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            print("::warning::perf-smoke: %s missing from current run" % key)
            continue
        base_peak, cur_peak = number(base, "peak_bytes"), number(cur, "peak_bytes")
        if base_peak and cur_peak is not None:
            growth = cur_peak / base_peak - 1.0
            report(key, "peak %d -> %d B (%+.1f%%)"
                   % (base_peak, cur_peak, growth * 100),
                   growth > MEMORY_THRESHOLD,
                   "memory growth beyond %.0f%%" % (MEMORY_THRESHOLD * 100))
        base_fb = number(base, "batch_fallback_frac")
        cur_fb = number(cur, "batch_fallback_frac")
        if base_fb is not None and cur_fb is not None:
            report(key, "batch fallback %.4f -> %.4f" % (base_fb, cur_fb),
                   cur_fb > base_fb, "more rows took the row kernel")
        base_eps = number(base, "events_per_sec")
        cur_eps = number(cur, "events_per_sec")
        if not same_host or not base_eps or cur_eps is None:
            continue
        line = "%.0f -> %.0f ev/s (%.2fx)" % (base_eps, cur_eps,
                                             cur_eps / base_eps)
        if "vs_ref" in base and "vs_ref" in cur and \
                "shard_peak_bytes" not in cur:
            change = cur["vs_ref"] / base["vs_ref"]
            report(key, "%s, vs reference %.2fx -> %.2fx"
                   % (line, base["vs_ref"], cur["vs_ref"]),
                   change < 1.0 - args.threshold,
                   "lost more than %.0f%% against its reference"
                   % (args.threshold * 100))
        else:
            print("perf-smoke: %-44s %s (not gated)" % (key, line))

    for key in sorted(set(current) - set(baseline)):
        print("perf-smoke: %s is new (no baseline)" % key)

    print("perf-smoke: %d regression(s) (%s)"
          % (regressions, "strict" if args.strict else "report-only"))
    return 1 if args.strict and regressions > 0 else 0


if __name__ == "__main__":
    sys.exit(main())

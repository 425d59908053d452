#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline (stdlib only).

Usage:
    bench_diff.py FRESH BASELINE [--tol PCT] [--abs-floor X] [--strict]

Walks both JSON trees in parallel and reports every numeric leaf whose
relative deviation exceeds --tol percent (default 25 — CI machines are
noisy; the point is catching order-of-magnitude regressions and shape
breaks, not 5% jitter). Leaves smaller than --abs-floor (default 1.0, in
the leaf's own unit) are skipped: sub-nanosecond timings are pure noise.
Structural differences — a key present on one side only, a type mismatch —
are always reported: they mean the bench's schema drifted and the baseline
needs regenerating.

Keys whose name suggests a machine-dependent environment fact (threads,
reps, capacity, width, backend...) are compared for presence but not value.

By default the exit status is 0 even with deviations (report-only, for a
warning CI step); --strict exits 1 on any finding.
"""
import argparse
import json
import sys

# Environment facts: value differences are expected across machines/configs.
ENV_KEYS = {
    "threads", "reps", "capacity", "initial_capacity", "batch", "width",
    "increments", "n", "compiled", "bench", "growths",
}

findings = []


def note(path, msg):
    findings.append(f"{path}: {msg}")


def leaf_name(path):
    return path.rsplit(".", 1)[-1].rsplit("[", 1)[0]


def walk(fresh, base, path, tol, abs_floor):
    if type(fresh) is not type(base) and not (
            isinstance(fresh, (int, float)) and isinstance(base, (int, float))):
        note(path, f"type changed: {type(base).__name__} -> "
                   f"{type(fresh).__name__}")
        return
    if isinstance(fresh, dict):
        for k in base:
            if k not in fresh:
                note(f"{path}.{k}", "missing from fresh run")
        for k in fresh:
            if k not in base:
                note(f"{path}.{k}", "not in baseline (regenerate baseline?)")
            else:
                walk(fresh[k], base[k], f"{path}.{k}", tol, abs_floor)
    elif isinstance(fresh, list):
        if len(fresh) != len(base):
            note(path, f"length changed: {len(base)} -> {len(fresh)}")
        for i, (fv, bv) in enumerate(zip(fresh, base)):
            walk(fv, bv, f"{path}[{i}]", tol, abs_floor)
    elif isinstance(fresh, bool) or isinstance(fresh, str):
        if leaf_name(path) not in ENV_KEYS and fresh != base:
            note(path, f"{base!r} -> {fresh!r}")
    elif isinstance(fresh, (int, float)):
        if leaf_name(path) in ENV_KEYS:
            return
        if max(abs(fresh), abs(base)) < abs_floor:
            return
        denom = max(abs(base), abs_floor)
        dev = 100.0 * abs(fresh - base) / denom
        if dev > tol:
            note(path, f"{base} -> {fresh} ({dev:.0f}% > {tol:.0f}% tol)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--tol", type=float, default=25.0,
                    help="relative tolerance, percent (default 25)")
    ap.add_argument("--abs-floor", type=float, default=1.0,
                    help="ignore leaves where both sides are below this")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any finding (default: report only)")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)
    walk(fresh, base, "$", args.tol, args.abs_floor)

    if findings:
        print(f"bench_diff: {len(findings)} deviation(s) vs {args.baseline} "
              f"(tol {args.tol:.0f}%):")
        for f_ in findings:
            print(f"  {f_}")
    else:
        print(f"bench_diff: within {args.tol:.0f}% of {args.baseline}")
    return 1 if (findings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline (stdlib only).

Usage:
    bench_diff.py FRESH BASELINE [--tol PCT] [--abs-floor X] [--strict]

Walks both JSON trees in parallel and reports two kinds of finding:

* Structural: a key present on one side only, a changed type, or a list
  whose length changed (except a histogram's occupied-bucket list). These
  mean the bench's schema drifted and the baseline needs regenerating, so
  they always fail (exit 1).
* Deviations: a numeric leaf whose relative deviation exceeds --tol
  percent (default 25 — CI machines are noisy; the point is catching
  order-of-magnitude regressions, not 5% jitter), or a changed string or
  bool. Leaves smaller than --abs-floor (default 1.0, in the leaf's own
  unit) are skipped: sub-nanosecond timings are pure noise. Deviations are
  report-only unless --strict is given.

Keys whose name suggests a machine-dependent environment fact (threads,
reps, capacity, width, backend...) are compared for presence but not value.
"""
import argparse
import json
import sys

# Environment facts: value differences are expected across machines/configs.
ENV_KEYS = {
    "threads", "reps", "capacity", "initial_capacity", "batch", "width",
    "increments", "n", "compiled", "bench", "growths",
}

# Lists whose length is data, not schema: a histogram lists only its
# occupied buckets, so a run may occupy one bucket more or less.
DATA_LISTS = {"buckets"}


def leaf_name(path):
    return path.rsplit(".", 1)[-1].rsplit("[", 1)[0]


def diff(fresh, base, tol=25.0, abs_floor=1.0):
    """Returns (structural, deviations): lists of "path: message" strings."""
    structural, deviations = [], []

    def walk(fresh, base, path):
        if type(fresh) is not type(base) and not (
                isinstance(fresh, (int, float)) and isinstance(base, (int, float))):
            structural.append(f"{path}: type changed: {type(base).__name__} -> "
                              f"{type(fresh).__name__}")
            return
        if isinstance(fresh, dict):
            for k in base:
                if k not in fresh:
                    structural.append(f"{path}.{k}: missing from fresh run")
            for k in fresh:
                if k not in base:
                    structural.append(
                        f"{path}.{k}: not in baseline (regenerate baseline?)")
                else:
                    walk(fresh[k], base[k], f"{path}.{k}")
        elif isinstance(fresh, list):
            if len(fresh) != len(base):
                (deviations if leaf_name(path) in DATA_LISTS else structural).append(
                    f"{path}: length changed: {len(base)} -> {len(fresh)}")
            for i, (fv, bv) in enumerate(zip(fresh, base)):
                walk(fv, bv, f"{path}[{i}]")
        elif isinstance(fresh, (bool, str)) or fresh is None:
            if leaf_name(path) not in ENV_KEYS and fresh != base:
                deviations.append(f"{path}: {base!r} -> {fresh!r}")
        elif leaf_name(path) not in ENV_KEYS:
            if max(abs(fresh), abs(base)) < abs_floor:
                return
            dev = 100.0 * abs(fresh - base) / max(abs(base), abs_floor)
            if dev > tol:
                deviations.append(
                    f"{path}: {base} -> {fresh} ({dev:.0f}% > {tol:.0f}% tol)")

    walk(fresh, base, "$")
    return structural, deviations


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--tol", type=float, default=25.0,
                    help="relative tolerance, percent (default 25)")
    ap.add_argument("--abs-floor", type=float, default=1.0,
                    help="ignore leaves where both sides are below this")
    ap.add_argument("--strict", action="store_true",
                    help="also exit 1 on numeric deviations")
    args = ap.parse_args(argv)

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)
    structural, deviations = diff(fresh, base, args.tol, args.abs_floor)

    if structural:
        print(f"bench_diff: {len(structural)} structural difference(s) vs "
              f"{args.baseline} (schema drift: regenerate the baseline):")
        for s in structural:
            print(f"  {s}")
    if deviations:
        print(f"bench_diff: {len(deviations)} deviation(s) vs {args.baseline} "
              f"(tol {args.tol:.0f}%):")
        for d in deviations:
            print(f"  {d}")
    if not structural and not deviations:
        print(f"bench_diff: within {args.tol:.0f}% of {args.baseline}")
    return 1 if structural or (deviations and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
